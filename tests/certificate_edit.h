// Edits one vote of a certificate in a test. Certified votes are shared and
// immutable (other certificates and nodes may point to the same message), so
// the edited vote is a new message put in the old one's place.
#ifndef ALGORAND_TESTS_CERTIFICATE_EDIT_H_
#define ALGORAND_TESTS_CERTIFICATE_EDIT_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "src/core/certificate.h"

namespace algorand {

template <typename Edit>
void EditVote(Certificate* cert, size_t i, Edit edit) {
  VoteMessage vote = *cert->votes[i];
  edit(vote);
  cert->votes[i] = std::make_shared<const VoteMessage>(std::move(vote));
}

// Flips one signature byte of vote `i`.
inline void ForgeVote(Certificate* cert, size_t i) {
  EditVote(cert, i, [](VoteMessage& v) { v.signature[0] ^= 0x01; });
}

}  // namespace algorand

#endif  // ALGORAND_TESTS_CERTIFICATE_EDIT_H_
