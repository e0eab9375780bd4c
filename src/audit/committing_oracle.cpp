#include "audit/committing_oracle.hpp"

namespace mvf::audit {

CommittingOracle::CommittingOracle(attack::Oracle& inner,
                                   std::uint64_t salt_seed,
                                   std::string context_hex)
    : OracleDecorator(inner),
      rng_(salt_seed),
      context_hex_(std::move(context_hex)) {}

std::string CommittingOracle::leaf_message(std::uint64_t index,
                                           const std::vector<bool>& inputs,
                                           const std::vector<bool>& outputs,
                                           const std::string& prev_digest_hex) {
    // "q<i>|<in>|<out>|<prev>": unambiguous because the bit strings are
    // 0/1-only and the digest is hex -- no field can contain '|'.
    std::string msg = "q";
    msg += std::to_string(index);
    msg += '|';
    msg += attack::bits_to_string(inputs);
    msg += '|';
    msg += attack::bits_to_string(outputs);
    msg += '|';
    msg += prev_digest_hex;
    return msg;
}

std::string CommittingOracle::next_salt_hex() {
    static constexpr char kHex[] = "0123456789abcdef";
    // 16 salt bytes = 32 hex chars, from two draws of the seeded stream.
    std::string salt;
    salt.reserve(32);
    for (int d = 0; d < 2; ++d) {
        const std::uint64_t word = rng_.next_u64();
        for (int i = 15; i >= 0; --i) {
            salt.push_back(kHex[(word >> (4 * i)) & 0xf]);
        }
    }
    return salt;
}

void CommittingOracle::commit_one(const std::vector<bool>& inputs,
                                  const std::vector<bool>& outputs) {
    const std::string& prev =
        commitments_.empty() ? context_hex_ : commitments_.back().digest_hex;
    const std::string msg =
        leaf_message(commitments_.size(), inputs, outputs, prev);
    commitments_.push_back(Commitment::commit(msg, next_salt_hex()));
}

std::vector<bool> CommittingOracle::query(const std::vector<bool>& inputs) {
    std::vector<bool> out = inner_->query(inputs);
    commit_one(inputs, out);
    return out;
}

std::vector<std::uint64_t> CommittingOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    // Lane order IS query order: the recorder below us appends lanes
    // 0..count-1 in the same sequence, so chained commitments line up
    // one-to-one with transcript entries.
    for (int k = 0; k < count; ++k) {
        commit_one(attack::unpack_lane(inputs, k),
                   attack::unpack_lane(out, k));
    }
    return out;
}

std::string CommittingOracle::merkle_root() const {
    std::vector<std::string> leaves;
    leaves.reserve(commitments_.size());
    for (const Commitment& c : commitments_) leaves.push_back(c.digest_hex);
    return MerkleTree(std::move(leaves)).root();
}

}  // namespace mvf::audit
