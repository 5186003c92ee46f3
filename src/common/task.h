// Task<T>: one operation of the virtual-time simulation, awaitable from a
// C++20 coroutine.
//
// A stream's link operations either complete at once (a private Link owns
// its clock) or complete when the cluster's SharedLink reaches their end in
// virtual time. Task<T> carries three forms of an operation behind one
// awaitable type:
//   * ready     — Task::Ready(value): the value is known; awaiting it does
//                 not suspend;
//   * parked    — Task::Parked(slot, result): the value arrives later.
//                 Awaiting it stores the awaiting coroutine in `*slot`; the
//                 operation's owner writes `*result` and resumes the slot;
//   * coroutine — a body with co_await/co_return (ThrottledLink's composite
//                 send, KVStreamer::StreamOp, ClusterServer::ServeOne). It
//                 starts when first awaited (or Start()ed) and, once done,
//                 resumes whoever awaited it by symmetric transfer, so chains
//                 of awaits never grow the stack.
// Get() completes a task synchronously and throws if it parks: the
// synchronous Link and KVStreamer entry points drive private links so.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

namespace cachegen {

// Parks the awaiting coroutine in `*slot` until the slot's owner resumes it.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *slot = h; }
  void await_resume() const noexcept {}
};

template <class T>
class [[nodiscard]] Task {
  using Value = std::conditional_t<std::is_void_v<T>, std::monostate, T>;

  struct PromiseBase {
    std::optional<Value> value;
    std::exception_ptr error;
    std::coroutine_handle<> continuation;

    std::suspend_always initial_suspend() noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }
  };
  struct ReturnValue : PromiseBase {
    template <class U>
    void return_value(U&& v) { this->value.emplace(std::forward<U>(v)); }
  };
  struct ReturnVoid : PromiseBase {
    void return_void() { this->value.emplace(); }
  };

 public:
  struct promise_type
      : std::conditional_t<std::is_void_v<T>, ReturnVoid, ReturnValue> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    auto final_suspend() noexcept {
      struct ResumeAwaiter {
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<> await_suspend(
            std::coroutine_handle<promise_type> h) noexcept {
          const std::coroutine_handle<> next = h.promise().continuation;
          return next ? next : std::noop_coroutine();
        }
        void await_resume() noexcept {}
      };
      return ResumeAwaiter{};
    }
  };

  static Task Ready(Value value) {
    Task t;
    t.value_.emplace(std::move(value));
    return t;
  }
  static Task Parked(std::coroutine_handle<>* slot, Value* result) {
    Task t;
    t.slot_ = slot;
    t.result_ = result;
    return t;
  }

  Task(Task&& o) noexcept
      : coro_(std::exchange(o.coro_, {})),
        value_(std::move(o.value_)),
        slot_(o.slot_),
        result_(o.result_) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (coro_) coro_.destroy();
  }

  bool await_ready() const noexcept { return value_.has_value(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
    if (coro_) {
      coro_.promise().continuation = awaiting;
      return coro_;
    }
    *slot_ = awaiting;
    return std::noop_coroutine();
  }
  T await_resume() { return Take(); }

  // Driving a top-level coroutine task: Start() runs it to its first park;
  // whoever owns that park resumes it from there.
  void Start() {
    if (coro_) coro_.resume();
  }
  bool done() const { return value_.has_value() || (coro_ && coro_.done()); }
  // The result of a done task (rethrows what its body threw).
  T Take() {
    if (coro_ && coro_.promise().error) {
      std::rethrow_exception(coro_.promise().error);
    }
    if constexpr (!std::is_void_v<T>) {
      if (coro_) return std::move(*coro_.promise().value);
      return std::move(result_ ? *result_ : *value_);
    }
  }
  T Get() {
    Start();
    if (!done()) throw std::logic_error("Task::Get: the operation parked");
    return Take();
  }

 private:
  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : coro_(h) {}

  std::coroutine_handle<promise_type> coro_;
  std::optional<Value> value_;
  std::coroutine_handle<>* slot_ = nullptr;
  Value* result_ = nullptr;
};

}  // namespace cachegen
