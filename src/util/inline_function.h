// Move-only callable with inline storage (DESIGN.md §13).
//
// std::function's small-buffer optimisation (16 bytes in libstdc++) is too
// small for the callbacks of the simulator's hot paths: an event closure
// or a fetch completion captures `this`, a shared_ptr liveness token and a
// few ids or timestamps, so every schedule and every fetch paid a heap
// allocation and every fire a deallocation. InlineFunction<Sig, N> keeps
// callables of up to N bytes inside the object and only falls back to the
// heap for larger (or over-aligned, or throwing-move) ones. It is
// move-only: every callback here fires at most once or is owned by one
// task, so copyability buys nothing and would force captured state to be
// copyable. Like std::function, operator() is const and invokes the
// stored callable as an lvalue.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace sperke::util {

template <typename Sig, std::size_t N>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
 public:
  static_assert(N >= sizeof(void*), "the heap fallback keeps a pointer inline");

  // Whether a callable of type D is stored inline (no heap allocation).
  // Captures of pointers, ids, times and shared_ptrs are word-aligned.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= N && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  InlineFunction(F&& fn) {
    using D = std::remove_cvref_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(storage_, other.storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

  friend bool operator==(const InlineFunction& fn, std::nullptr_t) {
    return fn.vtable_ == nullptr;
  }

  // Precondition: *this holds a callable.
  R operator()(Args... args) const {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct into dst from src, then destroy src's value.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  // std::invoke_r before C++23: a void signature discards the result.
  template <typename D>
  static R call(D& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(fn, std::forward<Args>(args)...);
    } else {
      return std::invoke(fn, std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static constexpr VTable kInlineOps{
      [](void* storage, Args&&... args) -> R {
        return call(*static_cast<D*>(storage), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* storage) noexcept { static_cast<D*>(storage)->~D(); }};

  template <typename D>
  static constexpr VTable kHeapOps{
      [](void* storage, Args&&... args) -> R {
        return call(**static_cast<D**>(storage), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* storage) noexcept { delete *static_cast<D**>(storage); }};

  // Mutable so that the const operator() can invoke a stateful callable,
  // as std::function does.
  alignas(void*) mutable unsigned char storage_[N];
  const VTable* vtable_ = nullptr;
};

}  // namespace sperke::util
