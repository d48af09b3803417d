// Move-only small-buffer callables for the hot paths.
//
// std::function pays an indirect "manager" call for every move and
// destroy, which adds up to several per scheduled event, and it heap
// allocates whenever a capture outgrows its small buffer.  The
// components' callbacks are overwhelmingly small lambdas over
// pointers/references, so UniqueFunction specializes for them:
// callables that fit the inline buffer and are trivially copyable move
// by plain memcpy and destroy for free -- no indirect calls outside the
// single invocation.  Anything bigger (or not nothrow-movable)
// transparently falls back to the heap, so any callable -- including a
// whole std::function -- still works.
//
// UniqueFunction<R(Args...)> is the general form used by components
// whose completions carry a payload (a PlacementDecision, an elapsed
// Duration, a link frame's checksum verdict); UniqueCallback is the
// void() alias the event engine schedules.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace xartrek::sim {

template <typename Sig>
class UniqueFunction;  // undefined; only the R(Args...) form exists

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline capture budget: enough for a `this` pointer plus a moved-in
  /// std::function, the largest shape the components schedule.
  static constexpr std::size_t kInlineBytes = 48;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, UniqueFunction> &&
                !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using T = std::remove_cvref_t<F>;
    if constexpr (sizeof(T) <= kInlineBytes &&
                  alignof(T) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<T>) {
      new (buf_) T(std::forward<F>(f));
      invoke_ = [](void* b, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<T*>(b)))(
            std::forward<Args>(args)...);
      };
      if constexpr (!(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>)) {
        relocate_ = [](void* dst, void* src) {
          T* s = std::launder(reinterpret_cast<T*>(src));
          new (dst) T(std::move(*s));
          s->~T();
        };
        destroy_ = [](void* b) {
          std::launder(reinterpret_cast<T*>(b))->~T();
        };
      }
    } else {
      T* p = new T(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      invoke_ = [](void* b, Args&&... args) -> R {
        T* p;
        std::memcpy(&p, b, sizeof(p));
        return (*p)(std::forward<Args>(args)...);
      };
      destroy_ = [](void* b) {
        T* p;
        std::memcpy(&p, b, sizeof(p));
        delete p;
      };
      // The pointer itself relocates by memcpy: relocate_ stays null.
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept {
    adopt(std::move(other));
  }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(std::move(other));
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }
  explicit operator bool() const { return invoke_ != nullptr; }
  friend bool operator==(const UniqueFunction& c, std::nullptr_t) {
    return c.invoke_ == nullptr;
  }

 private:
  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }
  void adopt(UniqueFunction&& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (invoke_ != nullptr) {
      if (relocate_ != nullptr) {
        relocate_(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*relocate_)(void* dst, void* src) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// The event engine's callable: what Simulation schedules.
using UniqueCallback = UniqueFunction<void()>;

}  // namespace xartrek::sim
