// Payment transactions: a transfer of currency signed by the sender's key.
// Transactions carry a per-sender nonce so a payment cannot be replayed; this
// is what makes double-spending attempts visible as conflicting transactions.
#ifndef ALGORAND_SRC_LEDGER_TRANSACTION_H_
#define ALGORAND_SRC_LEDGER_TRANSACTION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/crypto/signer.h"

namespace algorand {

struct Transaction {
  PublicKey from;
  PublicKey to;
  uint64_t amount = 0;
  uint64_t fee = 0;
  uint64_t nonce = 0;  // Must equal the sender's next nonce.
  Signature signature;

  // The signed portion (everything but the signature).
  std::vector<uint8_t> SerializeBody() const;
  std::vector<uint8_t> Serialize() const;
  static std::optional<Transaction> Deserialize(Reader* r);

  // SHA-256 of the full serialization: the transaction id. Hashes a stack
  // copy of the wire image, so it allocates nothing.
  Hash256 Id() const;

  // Serialized size in bytes (fixed for this format).
  static constexpr size_t kWireSize = 32 + 32 + 8 + 8 + 8 + 64;

 private:
  // Size of the signed prefix of the wire image.
  static constexpr size_t kBodySize = kWireSize - 64;

  // The one definition of the wire format: writes the kWireSize-byte image
  // (from, to, then amount, fee and nonce little-endian, then the signature).
  void Encode(uint8_t out[kWireSize]) const;
};

// Builds and signs a payment.
Transaction MakeTransaction(const Ed25519KeyPair& sender, const PublicKey& to, uint64_t amount,
                            uint64_t nonce, const SignerBackend& signer, uint64_t fee = 0);

// Checks the sender's signature.
bool VerifyTransactionSignature(const Transaction& tx, const SignerBackend& signer);

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_TRANSACTION_H_
