// Batch transaction-signature verification.
//
// A 1 MB block carries ~6,900 Ed25519 signatures — §10.1 identifies exactly
// this as the dominant CPU cost of a node. TxSigVerifier fans signature
// checks out across the shared VerifyPool and memoizes verdicts in the
// round-pruned VerificationCache keyed by transaction id. A node checks a
// payment once, at mempool admission (Node::SubmitTransaction); block
// validation verifies only the payments its mempool does not hold.
// Signature validity is a pure function of the transaction bytes (no round
// context), so cached verdicts need no ContextKey salt and worker count can
// never change a protocol decision — with zero workers everything runs
// inline on the calling thread, the deterministic tier-1 configuration.
#ifndef ALGORAND_SRC_CORE_TX_VERIFIER_H_
#define ALGORAND_SRC_CORE_TX_VERIFIER_H_

#include <vector>

#include "src/common/verify_pool.h"
#include "src/core/verification_cache.h"
#include "src/crypto/signer.h"
#include "src/ledger/transaction.h"

namespace algorand {

class TxSigVerifier {
 public:
  // All pointers are borrowed. `cache` and `pool` may be null (inline,
  // uncached verification); `signer` must not be.
  TxSigVerifier(const SignerBackend* signer, VerificationCache* cache, VerifyPool* pool)
      : signer_(signer), cache_(cache), pool_(pool) {}

  // Verifies one signature through the cache.
  bool VerifyOne(const Transaction& tx) const;

  // Verifies every signature; false if any is invalid. With pool workers the
  // checks run chunked across threads while the caller waits (each through
  // the cache, so a verdict already cached costs a lookup); otherwise
  // sequentially. Verdict is worker-count independent.
  bool VerifyBatch(const std::vector<Transaction>& txns) const;

 private:
  uint64_t ComputeOne(const Transaction& tx) const {
    return signer_->Verify(tx.from, tx.SerializeBody(), tx.signature) ? 1 : 0;
  }

  const SignerBackend* signer_;
  VerificationCache* cache_;
  VerifyPool* pool_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_CORE_TX_VERIFIER_H_
