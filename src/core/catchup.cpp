#include "src/core/catchup.h"

#include "src/crypto/sha256.h"

namespace algorand {

RoundContext ContextAt(const Ledger& ledger, const ProtocolParams& params, uint64_t round) {
  RoundContext ctx;
  ctx.round = round;
  ctx.seed = ledger.SortitionSeed(round, params.seed_refresh_interval);
  ctx.prev_hash =
      round == ledger.next_round() ? ledger.tip_hash() : ledger.BlockAtRound(round).prev_hash;
  ctx.total_weight = ledger.total_weight();
  const Ledger* l = &ledger;
  ctx.weight_of = [l](const PublicKey& pk) { return l->WeightOf(pk); };
  return ctx;
}

namespace {

// `cert` certifies `hash` at `ctx.round` (with the final step when `is_final`).
RoundCheck CheckCertificate(const Certificate& cert, const Hash256& hash, bool is_final,
                            const RoundContext& ctx, const ProtocolParams& params,
                            const VrfBackend& vrf, const SignerBackend& signer) {
  if (cert.round != ctx.round || cert.block_hash != hash ||
      (is_final && cert.step != kStepFinal)) {
    return RoundCheck::kCertMismatch;
  }
  if (!ValidateCertificate(cert, ctx, params, vrf, signer)) {
    return RoundCheck::kInvalidCert;
  }
  return RoundCheck::kOk;
}

}  // namespace

RoundCheck AppendCertifiedRound(Ledger* ledger, const ProtocolParams& params,
                                const VrfBackend& vrf, const SignerBackend& signer,
                                const Block& block, const Certificate* cert,
                                const Certificate* final_cert, const CertifiedRoundRules& rules) {
  const uint64_t round = ledger->next_round();
  if (block.round != round) {
    return RoundCheck::kWrongRound;
  }
  if (cert == nullptr && !rules.allow_uncertified) {
    return RoundCheck::kUncertified;
  }
  const RoundContext ctx = ContextAt(*ledger, params, round);
  const Hash256 hash = block.Hash();
  for (auto [c, is_final] : {std::pair{cert, false}, std::pair{final_cert, true}}) {
    if (c == nullptr) {
      continue;
    }
    if (RoundCheck check = CheckCertificate(*c, hash, is_final, ctx, params, vrf, signer);
        check != RoundCheck::kOk) {
      return check;
    }
  }
  ConsensusKind kind = rules.kind.value_or(cert != nullptr && cert->step == kStepFinal
                                               ? ConsensusKind::kFinal
                                               : ConsensusKind::kTentative);
  if (!ledger->Append(block, kind)) {
    return RoundCheck::kDoesNotApply;
  }
  if (final_cert != nullptr) {
    ledger->MarkFinalThrough(round);
  }
  return RoundCheck::kOk;
}

RoundCheck MarkCertifiedFinal(Ledger* ledger, const ProtocolParams& params,
                              const VrfBackend& vrf, const SignerBackend& signer,
                              const Certificate& final_cert) {
  const uint64_t round = final_cert.round;
  if (round <= ledger->base_round() || round >= ledger->next_round()) {
    return RoundCheck::kOutsideChain;
  }
  RoundCheck check =
      CheckCertificate(final_cert, ledger->BlockAtRound(round).Hash(), /*final=*/true,
                       ContextAt(*ledger, params, round), params, vrf, signer);
  if (check == RoundCheck::kOk) {
    ledger->MarkFinalThrough(round);
  }
  return check;
}

CatchupResult CatchupFromGenesis(const GenesisConfig& genesis, const ProtocolParams& params,
                                 const std::vector<Block>& blocks,
                                 const std::vector<Certificate>& certs, const VrfBackend& vrf,
                                 const SignerBackend& signer, const Certificate* final_cert) {
  CatchupResult result;
  result.ledger = std::make_unique<Ledger>(genesis);
  if (blocks.size() != certs.size()) {
    result.error = "blocks/certificates length mismatch";
    return result;
  }
  static constexpr const char* kWhy[] = {
      "", "block round mismatch", "missing certificate", "certificate does not cover block",
      "invalid certificate", "block does not apply", "certificate outside chain"};
  // Finality comes only from the trailing final certificate.
  const CertifiedRoundRules rules{.kind = ConsensusKind::kTentative};
  for (size_t i = 0; i < blocks.size(); ++i) {
    RoundCheck check = AppendCertifiedRound(result.ledger.get(), params, vrf, signer, blocks[i],
                                            &certs[i], nullptr, rules);
    if (check != RoundCheck::kOk) {
      result.error = std::string(kWhy[static_cast<int>(check)]) + " at round " +
                     std::to_string(result.ledger->next_round());
      return result;
    }
    ++result.verified_rounds;
  }
  // Final blocks are totally ordered, so the most recent final certificate
  // proves every round up to it (§8.3).
  if (final_cert != nullptr) {
    RoundCheck check = MarkCertifiedFinal(result.ledger.get(), params, vrf, signer, *final_cert);
    if (check != RoundCheck::kOk) {
      result.error = std::string("final ") + kWhy[static_cast<int>(check)];
      return result;
    }
  }
  result.ok = true;
  return result;
}

std::vector<uint8_t> CatchupRequestMessage::Serialize() const {
  Writer w;
  w.U32(requester);
  w.U64(seq);
  w.U64(from_round);
  w.U32(limit);
  return w.Take();
}

std::optional<CatchupRequestMessage> CatchupRequestMessage::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  CatchupRequestMessage m;
  m.requester = r.U32();
  m.seq = r.U64();
  m.from_round = r.U64();
  m.limit = r.U32();
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Hash256 CatchupRequestMessage::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

std::vector<uint8_t> CatchupResponseMessage::Serialize() const {
  Writer w;
  w.U32(responder);
  w.U64(seq);
  w.U64(from_round);
  w.U64(tip_round);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.Bytes(e.block.Serialize());
    w.Bytes(e.cert.Serialize());
  }
  w.U8(final_cert.has_value() ? 1 : 0);
  if (final_cert.has_value()) {
    w.Bytes(final_cert->Serialize());
  }
  return w.Take();
}

std::optional<CatchupResponseMessage> CatchupResponseMessage::Deserialize(
    std::span<const uint8_t> data) {
  Reader r(data);
  CatchupResponseMessage m;
  m.responder = r.U32();
  m.seq = r.U64();
  m.from_round = r.U64();
  m.tip_round = r.U64();
  uint32_t n = r.U32();
  if (!r.ok() || n > data.size()) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    auto bb = r.Bytes();
    auto block = Block::Deserialize(bb);
    auto cb = r.Bytes();
    auto cert = Certificate::Deserialize(cb);
    if (!block || !cert) {
      return std::nullopt;
    }
    m.entries.push_back(Entry{std::move(*block), std::move(*cert)});
  }
  uint8_t has_final = r.U8();
  if (!r.ok() || has_final > 1) {
    return std::nullopt;
  }
  if (has_final == 1) {
    auto fb = r.Bytes();
    auto cert = Certificate::Deserialize(fb);
    if (!cert) {
      return std::nullopt;
    }
    m.final_cert = std::move(*cert);
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

uint64_t CatchupResponseMessage::ComputeWireSize() const {
  uint64_t size = 4 + 8 + 8 + 8 + 4 + 1;
  for (const Entry& e : entries) {
    size += 8 + e.block.WireSize() + e.cert.WireSize();
  }
  if (final_cert.has_value()) {
    size += 4 + final_cert->WireSize();
  }
  return size;
}

Hash256 CatchupResponseMessage::ComputeDedupId() const { return Sha256::Hash(Serialize()); }

}  // namespace algorand
