#pragma once
// Word-parallel truth tables with one inline word.
//
// TruthTable is the workhorse function representation of the whole flow:
// S-box outputs, merged-specification outputs, cut functions during rewriting
// and technology mapping, camouflaged-cell plausible functions, and the
// ABSFUNC select-abstraction all manipulate TruthTable values.
//
// A table over n variables stores 2^n bits packed into 64-bit words.  For
// n < 6 a single word is used and the unused high bits are kept zero
// (tables are always kept normalized so operator== and hashing are exact).
// Variable 0 is the fastest-toggling input (minterm bit 0).
//
// Storage: every operation reads and writes through one data pointer.  A
// table of up to 6 variables points it at a word inside the object, so
// ISOP, cofactors and cut arithmetic on such tables never touch the heap;
// wider tables point it at a heap buffer of 2^(n-6) words.  Copies and
// moves re-aim the pointer, and a moved-from table is a valid table (a
// heap-backed one becomes the 0-variable constant false).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace mvf::logic {

class TruthTable {
public:
    /// Constant-false table over zero variables.
    TruthTable() noexcept : num_vars_(0), words_(&inline_word_) {}

    /// Constant-false table over `num_vars` variables (0 <= num_vars <= 16).
    explicit TruthTable(int num_vars);

    TruthTable(const TruthTable& other);
    TruthTable(TruthTable&& other) noexcept;
    TruthTable& operator=(const TruthTable& other);
    TruthTable& operator=(TruthTable&& other) noexcept;
    ~TruthTable() {
        if (on_heap()) delete[] words_;
    }

    static TruthTable zeros(int num_vars) { return TruthTable(num_vars); }
    static TruthTable ones(int num_vars);

    /// Projection function of input `var` in a space of `num_vars` variables.
    static TruthTable var(int var, int num_vars);

    /// Table over `num_vars` <= 6 variables whose bits are the low 2^n bits
    /// of `bits`.
    static TruthTable from_u64(int num_vars, std::uint64_t bits);

    /// Builds a table by evaluating `f` on every minterm index.
    static TruthTable from_function(int num_vars,
                                    const std::function<bool(std::uint32_t)>& f);

    int num_vars() const { return num_vars_; }
    std::uint32_t num_bits() const { return 1u << num_vars_; }
    std::size_t num_words() const { return words_for(num_vars_); }
    std::uint64_t word(std::size_t i) const { return words_[i]; }

    bool bit(std::uint32_t minterm) const;
    void set_bit(std::uint32_t minterm, bool value);

    bool is_zero() const;
    bool is_ones() const;
    bool is_const() const { return is_zero() || is_ones(); }
    int count_ones() const;

    bool operator==(const TruthTable& other) const;

    TruthTable operator~() const;
    TruthTable operator&(const TruthTable& o) const;
    TruthTable operator|(const TruthTable& o) const;
    TruthTable operator^(const TruthTable& o) const;
    TruthTable& operator&=(const TruthTable& o);
    TruthTable& operator|=(const TruthTable& o);
    TruthTable& operator^=(const TruthTable& o);

    /// Cofactor with `var` fixed to `value`; the result keeps the same
    /// variable space (it simply no longer depends on `var`).
    TruthTable cofactor(int var, bool value) const;

    /// True iff the function's value changes with `var` for some minterm.
    bool depends_on(int var) const;

    /// Indices of all variables the function depends on, ascending.
    std::vector<int> support() const;

    /// Input permutation: result g satisfies
    ///   g(x_0..x_{n-1}) = f applied with its input i reading x_{perm[i]}.
    /// perm must be a permutation of {0..n-1}.
    TruthTable permute(std::span<const int> perm) const;

    /// Re-expresses the function in a larger variable space; new variables
    /// are don't-cares.  `new_num_vars >= num_vars()`.
    TruthTable extend(int new_num_vars) const;

    /// Projects onto the variables in `vars` (which must contain the whole
    /// support): result h over |vars| variables with h's input j bound to
    /// original variable vars[j].
    TruthTable project(std::span<const int> vars) const;

    /// Low 2^min(num_vars,6) bits of word 0 (handy for <=4-var matching).
    std::uint64_t as_u64() const { return words_[0]; }

    std::size_t hash() const;
    std::string to_hex() const;

private:
    static constexpr int kInlineVars = 6;

    static std::size_t words_for(int num_vars) {
        return num_vars <= kInlineVars ? 1u : std::size_t{1} << (num_vars - kInlineVars);
    }
    bool on_heap() const { return num_vars_ > kInlineVars; }
    /// Frees a heap buffer and re-aims the pointer at the inline word.
    void release() noexcept;
    /// Takes over `other`'s contents; *this must hold no heap buffer.
    void take(TruthTable& other) noexcept;
    void normalize();

    int num_vars_;
    std::uint64_t* words_;  ///< &inline_word_ for <= 6 variables, else heap
    std::uint64_t inline_word_ = 0;
};

struct TruthTableHash {
    std::size_t operator()(const TruthTable& t) const { return t.hash(); }
};

}  // namespace mvf::logic
