#include "logic/truth_table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace mvf::logic {
namespace {

// Magic masks for variables living inside a single 64-bit word.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

}  // namespace

TruthTable::TruthTable(int num_vars)
    : num_vars_(num_vars),
      words_(num_vars > kInlineVars ? new std::uint64_t[words_for(num_vars)]()
                                    : &inline_word_) {
    assert(num_vars >= 0 && num_vars <= 16);
}

TruthTable::TruthTable(const TruthTable& other)
    : num_vars_(other.num_vars_),
      words_(other.on_heap() ? new std::uint64_t[other.num_words()] : &inline_word_) {
    std::copy_n(other.words_, other.num_words(), words_);
}

TruthTable::TruthTable(TruthTable&& other) noexcept : num_vars_(0), words_(&inline_word_) {
    take(other);
}

TruthTable& TruthTable::operator=(const TruthTable& other) {
    if (this == &other) return *this;
    if (!other.on_heap()) {
        release();
    } else if (!on_heap() || num_words() != other.num_words()) {
        std::uint64_t* buffer = new std::uint64_t[other.num_words()];
        release();
        words_ = buffer;
    }
    num_vars_ = other.num_vars_;
    std::copy_n(other.words_, num_words(), words_);
    return *this;
}

TruthTable& TruthTable::operator=(TruthTable&& other) noexcept {
    if (this == &other) return *this;
    release();
    take(other);
    return *this;
}

void TruthTable::release() noexcept {
    if (on_heap()) delete[] words_;
    num_vars_ = 0;
    words_ = &inline_word_;
}

void TruthTable::take(TruthTable& other) noexcept {
    num_vars_ = other.num_vars_;
    if (other.on_heap()) {
        words_ = other.words_;
        other.num_vars_ = 0;
        other.words_ = &other.inline_word_;
        other.inline_word_ = 0;
    } else {
        inline_word_ = other.inline_word_;
    }
}

TruthTable TruthTable::ones(int num_vars) {
    TruthTable t(num_vars);
    std::fill_n(t.words_, t.num_words(), ~0ull);
    t.normalize();
    return t;
}

TruthTable TruthTable::var(int var, int num_vars) {
    assert(var >= 0 && var < num_vars);
    TruthTable t(num_vars);
    if (var < 6) {
        std::fill_n(t.words_, t.num_words(), kVarMask[var]);
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < t.num_words(); ++i) {
            if ((i / stride) & 1) t.words_[i] = ~0ull;
        }
    }
    t.normalize();
    return t;
}

TruthTable TruthTable::from_u64(int num_vars, std::uint64_t bits) {
    assert(num_vars <= 6);
    TruthTable t(num_vars);
    t.words_[0] = bits;
    t.normalize();
    return t;
}

TruthTable TruthTable::from_function(
    int num_vars, const std::function<bool(std::uint32_t)>& f) {
    TruthTable t(num_vars);
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) t.set_bit(m, f(m));
    return t;
}

bool TruthTable::bit(std::uint32_t minterm) const {
    return (words_[minterm >> 6] >> (minterm & 63)) & 1;
}

void TruthTable::set_bit(std::uint32_t minterm, bool value) {
    const std::uint64_t mask = 1ull << (minterm & 63);
    if (value)
        words_[minterm >> 6] |= mask;
    else
        words_[minterm >> 6] &= ~mask;
}

bool TruthTable::is_zero() const {
    return std::all_of(words_, words_ + num_words(),
                       [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_ones() const {
    if (num_vars_ < 6) return words_[0] == (1ull << (1 << num_vars_)) - 1;
    return std::all_of(words_, words_ + num_words(),
                       [](std::uint64_t w) { return w == ~0ull; });
}

int TruthTable::count_ones() const {
    int n = 0;
    for (std::size_t i = 0; i < num_words(); ++i) n += __builtin_popcountll(words_[i]);
    return n;
}

bool TruthTable::operator==(const TruthTable& other) const {
    return num_vars_ == other.num_vars_ &&
           std::equal(words_, words_ + num_words(), other.words_);
}

TruthTable TruthTable::operator~() const {
    TruthTable t(*this);
    for (std::size_t i = 0; i < t.num_words(); ++i) t.words_[i] = ~t.words_[i];
    t.normalize();
    return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    TruthTable t(*this);
    return t &= o;
}
TruthTable TruthTable::operator|(const TruthTable& o) const {
    TruthTable t(*this);
    return t |= o;
}
TruthTable TruthTable::operator^(const TruthTable& o) const {
    TruthTable t(*this);
    return t ^= o;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    for (std::size_t i = 0; i < num_words(); ++i) words_[i] &= o.words_[i];
    return *this;
}
TruthTable& TruthTable::operator|=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    for (std::size_t i = 0; i < num_words(); ++i) words_[i] |= o.words_[i];
    return *this;
}
TruthTable& TruthTable::operator^=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    for (std::size_t i = 0; i < num_words(); ++i) words_[i] ^= o.words_[i];
    return *this;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
    assert(var >= 0 && var < num_vars_);
    TruthTable t(*this);
    if (var < 6) {
        const int shift = 1 << var;
        const std::uint64_t mask = kVarMask[var];
        for (std::size_t i = 0; i < t.num_words(); ++i) {
            std::uint64_t& w = t.words_[i];
            if (value)
                w = (w & mask) | ((w & mask) >> shift);
            else
                w = (w & ~mask) | ((w & ~mask) << shift);
        }
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < t.num_words(); ++i) {
            const bool hi = (i / stride) & 1;
            if (hi != value) {
                const std::size_t src = value ? i + stride : i - stride;
                t.words_[i] = t.words_[src];
            }
        }
    }
    t.normalize();
    return t;
}

bool TruthTable::depends_on(int var) const {
    assert(var >= 0 && var < num_vars_);
    // Compares the two cofactors in place: the var=0 half of every minterm
    // pair against its var=1 partner.
    if (var < 6) {
        const int shift = 1 << var;
        const std::uint64_t mask = kVarMask[var];
        for (std::size_t i = 0; i < num_words(); ++i) {
            const std::uint64_t w = words_[i];
            if (((w & mask) >> shift) != (w & ~mask)) return true;
        }
        return false;
    }
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < num_words(); i += 2 * stride) {
        if (!std::equal(words_ + i, words_ + i + stride, words_ + i + stride)) return true;
    }
    return false;
}

std::vector<int> TruthTable::support() const {
    std::vector<int> vars;
    for (int v = 0; v < num_vars_; ++v)
        if (depends_on(v)) vars.push_back(v);
    return vars;
}

TruthTable TruthTable::permute(std::span<const int> perm) const {
    assert(static_cast<int>(perm.size()) == num_vars_);
    TruthTable t(num_vars_);
    for (std::uint32_t m = 0; m < num_bits(); ++m) {
        std::uint32_t src = 0;
        for (int j = 0; j < num_vars_; ++j) {
            if ((m >> perm[static_cast<std::size_t>(j)]) & 1) src |= 1u << j;
        }
        if (bit(src)) t.set_bit(m, true);
    }
    return t;
}

TruthTable TruthTable::extend(int new_num_vars) const {
    assert(new_num_vars >= num_vars_);
    TruthTable t(new_num_vars);
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) {
        if (bit(m & (num_bits() - 1))) t.set_bit(m, true);
    }
    return t;
}

TruthTable TruthTable::project(std::span<const int> vars) const {
    TruthTable t(static_cast<int>(vars.size()));
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) {
        std::uint32_t src = 0;
        for (std::size_t j = 0; j < vars.size(); ++j) {
            if ((m >> j) & 1) src |= 1u << vars[j];
        }
        if (bit(src)) t.set_bit(m, true);
    }
    return t;
}

std::size_t TruthTable::hash() const {
    std::size_t h = static_cast<std::size_t>(num_vars_) * 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < num_words(); ++i) {
        h ^= words_[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
}

std::string TruthTable::to_hex() const {
    std::string out;
    char buf[20];
    const int digits = num_vars_ <= 2 ? 1 : (1 << (num_vars_ - 2));
    for (std::size_t i = num_words(); i-- > 0;) {
        const int d = num_words() == 1 ? digits : 16;
        std::snprintf(buf, sizeof buf, "%0*llx", d,
                      static_cast<unsigned long long>(words_[i]));
        out += buf;
    }
    return out;
}

void TruthTable::normalize() {
    if (num_vars_ < 6) {
        words_[0] &= (1ull << (1 << num_vars_)) - 1;
    }
}

}  // namespace mvf::logic
