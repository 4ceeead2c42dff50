#include "src/core/certificate.h"

#include <unordered_set>

namespace algorand {

uint64_t Certificate::WireSize() const {
  // Serialize()'s image: round, step, hash and vote count, then each vote
  // behind its u32 length prefix.
  uint64_t size = 8 + 4 + 32 + 4;
  for (const auto& v : votes) {
    size += 4 + v->WireSize();
  }
  return size;
}

std::vector<uint8_t> Certificate::Serialize() const {
  Writer w;
  w.U64(round);
  w.U32(step);
  w.Fixed(block_hash);
  w.U32(static_cast<uint32_t>(votes.size()));
  for (const auto& v : votes) {
    w.Bytes(v->Serialize());
  }
  return w.Take();
}

std::optional<Certificate> Certificate::Deserialize(std::span<const uint8_t> data) {
  Reader r(data);
  Certificate c;
  c.round = r.U64();
  c.step = r.U32();
  c.block_hash = r.Fixed<32>();
  uint32_t n = r.U32();
  if (!r.ok() || n > data.size()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    auto vb = r.Bytes();
    auto vote = VoteMessage::Deserialize(vb);
    if (!vote) {
      return std::nullopt;
    }
    c.votes.push_back(std::make_shared<const VoteMessage>(std::move(*vote)));
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return c;
}

bool ValidateCertificate(const Certificate& cert, const RoundContext& ctx,
                         const ProtocolParams& params, const VrfBackend& vrf,
                         const SignerBackend& signer) {
  if (cert.round != ctx.round) {
    return false;
  }
  const bool final_cert = cert.step == kStepFinal;
  const double tau = final_cert ? params.tau_final : params.tau_step;
  const double threshold = final_cert ? params.FinalThreshold() : params.StepThreshold();

  uint64_t weight = 0;
  std::unordered_set<PublicKey, FixedBytesHasher> seen;
  for (const auto& vote : cert.votes) {
    const VoteMessage& v = *vote;
    // All votes must be for this round/step/value and extend the same chain.
    if (v.round != cert.round || v.step != cert.step || v.value != cert.block_hash ||
        v.prev_hash != ctx.prev_hash) {
      return false;
    }
    if (!seen.insert(v.pk).second) {
      return false;  // Duplicate voter.
    }
    if (!signer.Verify(v.pk, v.SignedBody(), v.signature)) {
      return false;
    }
    uint64_t votes = VerifySortition(vrf, v.pk, v.sorthash, v.sort_proof, ctx.seed, tau,
                                     Role::kCommittee, v.round, v.step, ctx.weight_of(v.pk),
                                     ctx.total_weight);
    if (votes == 0) {
      return false;
    }
    weight += votes;
  }
  return static_cast<double>(weight) > threshold;
}

}  // namespace algorand
