#include "src/ledger/transaction.h"

#include <cstring>

#include "src/crypto/sha256.h"

namespace algorand {

void Transaction::Encode(uint8_t out[kWireSize]) const {
  std::memcpy(out, from.data(), 32);
  std::memcpy(out + 32, to.data(), 32);
  uint8_t* p = out + 64;
  for (uint64_t v : {amount, fee, nonce}) {
    for (int i = 0; i < 8; ++i) {
      *p++ = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  std::memcpy(p, signature.data(), 64);
}

std::vector<uint8_t> Transaction::SerializeBody() const {
  uint8_t image[kWireSize];
  Encode(image);
  return std::vector<uint8_t>(image, image + kBodySize);
}

std::vector<uint8_t> Transaction::Serialize() const {
  std::vector<uint8_t> out(kWireSize);
  Encode(out.data());
  return out;
}

std::optional<Transaction> Transaction::Deserialize(Reader* r) {
  Transaction tx;
  tx.from = r->Fixed<32>();
  tx.to = r->Fixed<32>();
  tx.amount = r->U64();
  tx.fee = r->U64();
  tx.nonce = r->U64();
  tx.signature = r->Fixed<64>();
  if (!r->ok()) {
    return std::nullopt;
  }
  return tx;
}

Hash256 Transaction::Id() const {
  uint8_t image[kWireSize];
  Encode(image);
  return Sha256::Hash(std::span<const uint8_t>(image, kWireSize));
}

Transaction MakeTransaction(const Ed25519KeyPair& sender, const PublicKey& to, uint64_t amount,
                            uint64_t nonce, const SignerBackend& signer, uint64_t fee) {
  Transaction tx;
  tx.from = sender.public_key;
  tx.to = to;
  tx.amount = amount;
  tx.fee = fee;
  tx.nonce = nonce;
  tx.signature = signer.Sign(sender, tx.SerializeBody());
  return tx;
}

bool VerifyTransactionSignature(const Transaction& tx, const SignerBackend& signer) {
  return signer.Verify(tx.from, tx.SerializeBody(), tx.signature);
}

}  // namespace algorand
