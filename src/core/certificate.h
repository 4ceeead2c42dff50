// Block certificates (§8.3): the set of votes from the deciding BA* step
// that lets any (possibly new) user replay the consensus conclusion for a
// round. A certificate is valid when every vote checks out (signature,
// sortition for the claimed round/step, binding to the same previous block)
// and the weighted votes for the block hash exceed the step threshold.
//
// A certificate holds its votes by pointer: a node certifies the very vote
// messages it counted, which are the ones gossip delivered to every node, so
// each certified vote exists once per process however many certificates
// name it. The serialized form carries the votes' bytes.
#ifndef ALGORAND_SRC_CORE_CERTIFICATE_H_
#define ALGORAND_SRC_CORE_CERTIFICATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/context.h"
#include "src/core/messages.h"
#include "src/core/params.h"
#include "src/core/sortition.h"
#include "src/crypto/vrf.h"

namespace algorand {

struct Certificate {
  uint64_t round = 0;
  uint32_t step = 0;  // Wire step code whose votes certify the value.
  Hash256 block_hash;
  std::vector<std::shared_ptr<const VoteMessage>> votes;

  // Bytes this certificate occupies on the wire: Serialize().size().
  uint64_t WireSize() const;

  std::vector<uint8_t> Serialize() const;
  static std::optional<Certificate> Deserialize(std::span<const uint8_t> data);
};

// Validates a certificate against the round context (seed, weights, previous
// block hash). `final_cert` selects the final-step threshold (T_final *
// tau_final) over the ordinary step threshold.
bool ValidateCertificate(const Certificate& cert, const RoundContext& ctx,
                         const ProtocolParams& params, const VrfBackend& vrf,
                         const SignerBackend& signer);

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_CERTIFICATE_H_
