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

// A read-only transaction field: converts to `const T&` (`tx.amount + 1`,
// `tx.from->data()`); only Transaction can set it.
template <typename T>
class TxField {
 public:
  TxField(const TxField&) = default;
  operator const T&() const { return value_; }
  const T* operator->() const { return &value_; }

 private:
  friend class Transaction;
  explicit TxField(const T& value) : value_(value) {}
  TxField& operator=(const TxField&) = default;
  T value_;
};

// Immutable: every constructor derives the id once, so the carried id cannot
// go stale. The id keys the verification cache and mempool residency, where
// a payment edited under an old id would inherit another payment's verdict.
// The fields are TxFields rather than accessors because callers read
// `tx.from` directly; `const` members would make Transaction unassignable.
class Transaction {
 public:
  // Serialized size in bytes (fixed for this format), and of its signed
  // prefix (everything but the signature).
  static constexpr size_t kWireSize = 32 + 32 + 8 + 8 + 8 + 64;
  static constexpr size_t kBodySize = kWireSize - 64;

  // The fields as plain values.
  struct Fields {
    PublicKey from;
    PublicKey to;
    uint64_t amount = 0;
    uint64_t fee = 0;
    uint64_t nonce = 0;  // Must equal the sender's next nonce.
    Signature signature;
  };
  TxField<PublicKey> from;
  TxField<PublicKey> to;
  TxField<uint64_t> amount;
  TxField<uint64_t> fee;
  TxField<uint64_t> nonce;
  TxField<Signature> signature;

  Transaction() : Transaction(Fields{}) {}
  explicit Transaction(const Fields& f);

  // Test-only: `base` with `edit(Fields&)` applied and the id re-derived.
  template <typename Edit>
  static Transaction Edited(const Transaction& base, Edit&& edit) {
    Fields f = base.fields();
    edit(f);
    return Transaction(f);
  }

  std::vector<uint8_t> SerializeBody() const;
  std::vector<uint8_t> Serialize() const;
  // Appends the wire image to `w` with no intermediate buffer.
  void SerializeTo(Writer* w) const;
  static std::optional<Transaction> Deserialize(Reader* r);

  // The one definition of the wire format: writes the kWireSize-byte image
  // (from, to, then amount, fee and nonce little-endian, then the signature).
  static void Encode(const Fields& f, uint8_t out[kWireSize]);

  // SHA-256 of the wire image: the transaction id, derived at construction.
  const Hash256& Id() const { return id_; }

 private:
  Fields fields() const { return {from, to, amount, fee, nonce, signature}; }

  Hash256 id_;
};

// Builds and signs a payment.
Transaction MakeTransaction(const Ed25519KeyPair& sender, const PublicKey& to, uint64_t amount,
                            uint64_t nonce, const SignerBackend& signer, uint64_t fee = 0);

// Checks the sender's signature.
bool VerifyTransactionSignature(const Transaction& tx, const SignerBackend& signer);

}  // namespace algorand

#endif  // ALGORAND_SRC_LEDGER_TRANSACTION_H_
