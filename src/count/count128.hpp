#pragma once
// Saturating 128-bit unsigned counts with explicit overflow-checked
// arithmetic.
//
// The security metric of the whole repo is "how many viable configurations
// survive an attack", and on large selector spaces that number dwarfs
// uint64_t (a netlist with 70 free 2-choice cells already admits 2^70).
// Count128 is the carrier type for the model-counting subsystem: every
// operation detects overflow explicitly (no silent wraparound, no reliance
// on the non-portable __int128) and saturates to a sticky "at least 2^128"
// state that propagates through sums and products, so a saturated final
// count is reported as the lower bound it is instead of garbage.

#include <cstdint>
#include <string>

namespace mvf::count {

/// a*b with overflow detection, portably (no __int128): returns true and
/// leaves *out unspecified-but-assigned on overflow.  Also the primitive
/// behind the attack layer's dead-cone freedom product (the satellite fix:
/// the product of per-node freedoms must saturate, not wrap).
inline bool mul_overflow_u64(std::uint64_t a, std::uint64_t b,
                             std::uint64_t* out) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_mul_overflow(a, b, out);
#else
    *out = a * b;
    return b != 0 && a > UINT64_MAX / b;
#endif
}

inline bool add_overflow_u64(std::uint64_t a, std::uint64_t b,
                             std::uint64_t* out) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_add_overflow(a, b, out);
#else
    *out = a + b;
    return *out < a;
#endif
}

/// Unsigned 128-bit counter (value = hi*2^64 + lo) with saturating
/// arithmetic: once a computation would exceed 2^128 - 1 the count pins to
/// the maximum and saturated() stays true through every later add/mul --
/// except multiplication by zero, which annihilates exactly (the true
/// value times 0 is 0, so the result is exact again).
class Count128 {
public:
    constexpr Count128() = default;
    constexpr explicit Count128(std::uint64_t v) : lo_(v) {}
    constexpr Count128(std::uint64_t hi, std::uint64_t lo) : lo_(lo), hi_(hi) {}

    static constexpr Count128 zero() { return Count128(); }
    static constexpr Count128 one() { return Count128(1); }
    static Count128 saturated_max() {
        Count128 c(UINT64_MAX, UINT64_MAX);
        c.saturated_ = true;
        return c;
    }

    std::uint64_t lo() const { return lo_; }
    std::uint64_t hi() const { return hi_; }
    /// True once any operation overflowed 128 bits; the value then reads
    /// 2^128 - 1 and is a lower bound on the true count.
    bool saturated() const { return saturated_; }

    bool is_zero() const { return lo_ == 0 && hi_ == 0; }

    void add(const Count128& o) {
        if (o.saturated_) saturated_ = true;
        std::uint64_t lo;
        const bool carry = add_overflow_u64(lo_, o.lo_, &lo);
        std::uint64_t hi;
        bool over = add_overflow_u64(hi_, o.hi_, &hi);
        if (carry) over |= add_overflow_u64(hi, 1, &hi);
        lo_ = lo;
        hi_ = hi;
        if (over) saturate();
        else if (saturated_) saturate();  // sticky: keep the pinned value
    }

    void add_u64(std::uint64_t v) { add(Count128(v)); }

    void mul_u64(std::uint64_t m) {
        if (m == 0) {
            // 0 annihilates even a saturated lower bound: the true value
            // times 0 is exactly 0, so the result is exact again.
            lo_ = 0;
            hi_ = 0;
            saturated_ = false;
            return;
        }
        std::uint64_t carry_hi;  // overflow of lo_*m into the high word
        std::uint64_t lo = mul_64x64(lo_, m, &carry_hi);
        std::uint64_t hi;
        bool over = mul_overflow_u64(hi_, m, &hi);
        over |= add_overflow_u64(hi, carry_hi, &hi);
        lo_ = lo;
        hi_ = hi;
        if (over || saturated_) saturate();
    }

    void mul(const Count128& o) {
        if (is_zero() || o.is_zero()) {
            // Exactly 0 regardless of either operand's saturation.
            lo_ = 0;
            hi_ = 0;
            saturated_ = false;
            return;
        }
        if (o.saturated_) saturated_ = true;
        if (o.hi_ != 0) {
            // lo*o.hi contributes to the high word; hi*o.hi overflows
            // unless our high word is zero.
            std::uint64_t cross;
            bool over = hi_ != 0 && !is_zero() && !o.is_zero();
            over |= mul_overflow_u64(lo_, o.hi_, &cross);
            Count128 tmp = *this;
            tmp.mul_u64(o.lo_);
            std::uint64_t hi;
            over |= add_overflow_u64(tmp.hi_, cross, &hi);
            lo_ = tmp.lo_;
            hi_ = hi;
            if (over || tmp.saturated_ || saturated_) saturate();
        } else {
            mul_u64(o.lo_);
        }
    }

    /// Multiplies by 2^k (the free-variable multiplier of the projected
    /// counter), saturating when bits would shift out the top.
    void shift_left(int k) {
        if (k <= 0 || is_zero()) return;
        if (saturated_ || bit_width() + k > 128) {
            saturate();
            return;
        }
        while (k >= 32) {
            mul_u64(1ull << 32);
            k -= 32;
        }
        if (k > 0) mul_u64(1ull << k);
    }

    /// Value as uint64, pinned to UINT64_MAX when it does not fit.
    std::uint64_t to_u64_saturating() const {
        return hi_ != 0 ? UINT64_MAX : lo_;
    }

    /// Exact double only up to 2^53; beyond that the nearest double (for
    /// log-scale bench output, never for correctness).
    double to_double() const {
        return static_cast<double>(hi_) * 18446744073709551616.0 +
               static_cast<double>(lo_);
    }

    /// Number of significant bits (0 for zero): floor(log2(v)) + 1.
    int bit_width() const {
        if (hi_ != 0) return 128 - countl_zero_u64(hi_);
        if (lo_ != 0) return 64 - countl_zero_u64(lo_);
        return 0;
    }

    int compare(const Count128& o) const {
        if (hi_ != o.hi_) return hi_ < o.hi_ ? -1 : 1;
        if (lo_ != o.lo_) return lo_ < o.lo_ ? -1 : 1;
        return 0;
    }
    bool operator==(const Count128& o) const {
        return lo_ == o.lo_ && hi_ == o.hi_ && saturated_ == o.saturated_;
    }
    bool operator<(const Count128& o) const { return compare(o) < 0; }
    bool operator<=(const Count128& o) const { return compare(o) <= 0; }

    /// Decimal string ("340282366920938463463374607431768211455" at most);
    /// saturated counts render with a ">=" prefix.
    std::string to_string() const;

    /// Parses a decimal string (optionally ">="-prefixed), saturating at
    /// 2^128 - 1.  Returns false on non-numeric input.
    static bool from_string(const std::string& text, Count128* out);

private:
    void saturate() {
        lo_ = UINT64_MAX;
        hi_ = UINT64_MAX;
        saturated_ = true;
    }

    static int countl_zero_u64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
        return v == 0 ? 64 : __builtin_clzll(v);
#else
        int n = 0;
        for (std::uint64_t probe = 1ull << 63; probe && !(v & probe);
             probe >>= 1) {
            ++n;
        }
        return v == 0 ? 64 : n;
#endif
    }

    /// 64x64 -> 128 multiply via 32-bit halves; returns the low word and
    /// writes the high word.
    static std::uint64_t mul_64x64(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t* hi) {
        const std::uint64_t a_lo = a & 0xffffffffull, a_hi = a >> 32;
        const std::uint64_t b_lo = b & 0xffffffffull, b_hi = b >> 32;
        const std::uint64_t p0 = a_lo * b_lo;
        const std::uint64_t p1 = a_lo * b_hi;
        const std::uint64_t p2 = a_hi * b_lo;
        const std::uint64_t p3 = a_hi * b_hi;
        const std::uint64_t mid = (p0 >> 32) + (p1 & 0xffffffffull) +
                                  (p2 & 0xffffffffull);
        *hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
        return (p0 & 0xffffffffull) | (mid << 32);
    }

    std::uint64_t lo_ = 0;
    std::uint64_t hi_ = 0;
    bool saturated_ = false;
};

}  // namespace mvf::count
