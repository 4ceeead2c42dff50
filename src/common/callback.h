// UniqueCallback: a move-only callable slot with small-buffer optimization.
//
// The simulator's timers are short-lived closures; most capture a couple of
// pointers plus a round number and fit comfortably in a small inline buffer
// (message deliveries, the bulk of its events, are typed records instead). std::function requires copyability and (depending on
// the library) may heap-allocate captures beyond two words. UniqueCallback
// accepts any callable — including move-only ones — stores it inline when it
// fits kInlineBytes, and spills to the heap otherwise. Moving a UniqueCallback
// never allocates: inline payloads move member-wise, heap payloads transfer
// the pointer.
#ifndef ALGORAND_SRC_COMMON_CALLBACK_H_
#define ALGORAND_SRC_COMMON_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace algorand {

class UniqueCallback {
 public:
  // Inline capacity. Sized for the simulator's largest common timer: a lambda
  // holding `this`, an epoch and a std::function (Node::ScheduleAfter).
  static constexpr size_t kInlineBytes = 48;

  UniqueCallback() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  UniqueCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  UniqueCallback(UniqueCallback&& other) noexcept { MoveFrom(std::move(other)); }

  UniqueCallback& operator=(UniqueCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  UniqueCallback(const UniqueCallback&) = delete;
  UniqueCallback& operator=(const UniqueCallback&) = delete;

  ~UniqueCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    // Move-constructs `to` from `from` and destroys `from`'s payload.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* target);
    void (*invoke)(void* target);
  };

  template <typename D>
  struct InlineOps {
    static void Relocate(void* from, void* to) {
      D* src = std::launder(reinterpret_cast<D*>(from));
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void Destroy(void* target) { std::launder(reinterpret_cast<D*>(target))->~D(); }
    static void Invoke(void* target) { (*std::launder(reinterpret_cast<D*>(target)))(); }
    static constexpr Ops kOps{&Relocate, &Destroy, &Invoke};
  };

  template <typename D>
  struct HeapOps {
    static void Relocate(void* from, void* to) {
      *reinterpret_cast<D**>(to) = *reinterpret_cast<D**>(from);
    }
    static void Destroy(void* target) { delete *reinterpret_cast<D**>(target); }
    static void Invoke(void* target) { (**reinterpret_cast<D**>(target))(); }
    static constexpr Ops kOps{&Relocate, &Destroy, &Invoke};
  };

  void MoveFrom(UniqueCallback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_CALLBACK_H_
