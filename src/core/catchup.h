// Verified history (§8.3): a joining, lagging or restarting user checks each
// round it did not agree on itself against the chain rebuilt so far, so it
// always knows the correct weights for the next round's sortition proofs.
// Live catch-up, disk restore and CatchupFromGenesis share the checks here.
#ifndef ALGORAND_SRC_CORE_CATCHUP_H_
#define ALGORAND_SRC_CORE_CATCHUP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/certificate.h"
#include "src/core/params.h"
#include "src/ledger/ledger.h"

namespace algorand {

// The round-`round` context from `ledger` (which it reads, so must outlive):
// prev_hash is the tip for the next round, the block's parent for a past
// round; weights are the current ones.
RoundContext ContextAt(const Ledger& ledger, const ProtocolParams& params, uint64_t round);

enum class RoundCheck : uint8_t {
  kOk,
  kWrongRound,    // The block is not the next round.
  kUncertified,   // No deciding certificate, and the caller requires one.
  kCertMismatch,  // A certificate names another round or block (or, final, step).
  kInvalidCert,   // A certificate's votes fail signature, sortition or quorum.
  kDoesNotApply,  // Ledger::Append refused the block.
  kOutsideChain,  // A final certificate's round is not a retained chain round.
};

// Where the callers of AppendCertifiedRound differ.
struct CertifiedRoundRules {
  // The appended round's consensus kind; nullopt derives it from the
  // deciding certificate's step (final iff kStepFinal).
  std::optional<ConsensusKind> kind;
  // Accepts a round without a deciding certificate on chain structure alone.
  bool allow_uncertified = false;
};

// Checks `block` as the ledger's next round, with its deciding and final
// certificates (either may be null) against ContextAt(next round), then
// appends it; a final certificate marks the prefix final. Leaves the ledger
// untouched unless it returns kOk.
RoundCheck AppendCertifiedRound(Ledger* ledger, const ProtocolParams& params,
                                const VrfBackend& vrf, const SignerBackend& signer,
                                const Block& block, const Certificate* cert,
                                const Certificate* final_cert, const CertifiedRoundRules& rules);

// Checks a final certificate for a past round against ContextAt(its round),
// then marks that prefix final. A round at or below the compacted base, or
// beyond the tip, is kOutsideChain and changes nothing.
RoundCheck MarkCertifiedFinal(Ledger* ledger, const ProtocolParams& params,
                              const VrfBackend& vrf, const SignerBackend& signer,
                              const Certificate& final_cert);

struct CatchupResult {
  bool ok = false;
  std::string error;
  uint64_t verified_rounds = 0;
  std::unique_ptr<Ledger> ledger;  // State after replaying verified rounds.
};

// Validates `blocks[i]`/`certs[i]` (round i+1) in order starting from
// genesis, appending each as tentative. Stops with an error at the first
// certificate or chain-linkage failure. If `final_cert` is provided it must
// cover a replayed round (the "certificate proving safety" of §8.3); only
// then are that round and its prefix marked final.
CatchupResult CatchupFromGenesis(const GenesisConfig& genesis, const ProtocolParams& params,
                                 const std::vector<Block>& blocks,
                                 const std::vector<Certificate>& certs, const VrfBackend& vrf,
                                 const SignerBackend& signer,
                                 const Certificate* final_cert = nullptr);

// --- Live catch-up wire protocol (§8.3) ---
//
// A lagging node that sees votes for rounds ahead of its tip asks a random
// peer for a batch of blocks + certificates starting at `from_round`, and
// appends it through AppendCertifiedRound: a tampered batch costs the peer
// its turn (rotation) but can never corrupt the requester's chain.

class CatchupRequestMessage : public ProtocolMessage<MessageKind::kCatchupRequest> {
 public:
  uint32_t requester = 0;   // NodeId to answer to (point-to-point reply).
  uint64_t seq = 0;         // Per-requester nonce: retries defeat gossip dedup.
  uint64_t from_round = 0;  // First round wanted (requester's next_round).
  uint32_t limit = 0;       // Max rounds in the response batch.

  static constexpr uint64_t kWireSize = 4 + 8 + 8 + 4;

  std::vector<uint8_t> Serialize() const override;
  static std::optional<CatchupRequestMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "catchup_req"; }

 protected:
  uint64_t ComputeWireSize() const override { return kWireSize; }
  Hash256 ComputeDedupId() const override;
};

class CatchupResponseMessage : public ProtocolMessage<MessageKind::kCatchupResponse> {
 public:
  struct Entry {
    Block block;
    Certificate cert;  // Deciding-step certificate covering the block.
  };

  uint32_t responder = 0;
  uint64_t seq = 0;         // Echo of the request nonce.
  uint64_t from_round = 0;  // Round of entries.front() (echo of the request).
  uint64_t tip_round = 0;   // Responder's highest stored round (informational).
  std::vector<Entry> entries;  // Consecutive rounds; may be a partial batch
                               // when the responder's cert shard has gaps.
  std::optional<Certificate> final_cert;  // Highest final-step cert ≤ batch end.

  std::vector<uint8_t> Serialize() const override;
  static std::optional<CatchupResponseMessage> Deserialize(std::span<const uint8_t> data);

  const char* TypeName() const override { return "catchup_resp"; }

 protected:
  uint64_t ComputeWireSize() const override;
  Hash256 ComputeDedupId() const override;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_CATCHUP_H_
