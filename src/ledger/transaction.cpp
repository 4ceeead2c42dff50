#include "src/ledger/transaction.h"

#include <cstring>

#include "src/crypto/sha256.h"

namespace algorand {

void Transaction::Encode(const Fields& f, uint8_t out[kWireSize]) {
  std::memcpy(out, f.from.data(), 32);
  std::memcpy(out + 32, f.to.data(), 32);
  uint8_t* p = out + 64;
  for (uint64_t v : {f.amount, f.fee, f.nonce}) {
    for (int i = 0; i < 8; ++i) {
      *p++ = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  std::memcpy(p, f.signature.data(), 64);
}

Transaction::Transaction(const Fields& f)
    : from(f.from), to(f.to), amount(f.amount), fee(f.fee), nonce(f.nonce),
      signature(f.signature) {
  uint8_t image[kWireSize];
  Encode(f, image);
  id_ = Sha256::Hash(std::span<const uint8_t>(image, kWireSize));
}

std::vector<uint8_t> Transaction::SerializeBody() const {
  uint8_t image[kWireSize];
  Encode(fields(), image);
  return std::vector<uint8_t>(image, image + kBodySize);
}

std::vector<uint8_t> Transaction::Serialize() const {
  std::vector<uint8_t> out(kWireSize);
  Encode(fields(), out.data());
  return out;
}

void Transaction::SerializeTo(Writer* w) const {
  uint8_t image[kWireSize];
  Encode(fields(), image);
  w->Raw(std::span<const uint8_t>(image, kWireSize));
}

std::optional<Transaction> Transaction::Deserialize(Reader* r) {
  // Braced initializers are evaluated in order: the fields read in wire order.
  Fields f{r->Fixed<32>(), r->Fixed<32>(), r->U64(), r->U64(), r->U64(), r->Fixed<64>()};
  if (!r->ok()) {
    return std::nullopt;
  }
  return Transaction(f);
}

Transaction MakeTransaction(const Ed25519KeyPair& sender, const PublicKey& to, uint64_t amount,
                            uint64_t nonce, const SignerBackend& signer, uint64_t fee) {
  Transaction::Fields f{sender.public_key, to, amount, fee, nonce, Signature()};
  uint8_t image[Transaction::kWireSize];
  Transaction::Encode(f, image);
  f.signature = signer.Sign(sender, std::span<const uint8_t>(image, Transaction::kBodySize));
  return Transaction(f);
}

bool VerifyTransactionSignature(const Transaction& tx, const SignerBackend& signer) {
  return signer.Verify(tx.from, tx.SerializeBody(), tx.signature);
}

}  // namespace algorand
