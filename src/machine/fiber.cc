#include "src/machine/fiber.h"

#include "src/base/panic.h"

#if !defined(__x86_64__)
#error "the fiber context switch is written for the x86-64 System V ABI only"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define OSKIT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSKIT_ASAN_FIBERS 1
#endif
#endif

#ifdef OSKIT_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// A fiber switch saves only what the ABI says a callee must preserve: rbp,
// rbx, r12-r15, the MXCSR control bits and the x87 control word.  Every
// other register is caller-saved, so the compiler has already spilled what
// it needs before the call.  Unlike swapcontext, nothing touches the signal
// mask, so a switch costs no system call.
extern "C" {
// Pushes the callee-saved state onto the current stack, stores the stack
// pointer to *save_sp, loads load_sp and pops the same state from it.  It
// returns on the other stack: into that side's own oskit_fiber_switch call,
// or into oskit_fiber_start for a fiber that has not run yet.
void oskit_fiber_switch(void** save_sp, void* load_sp);
// Bottom frame of every fiber: calls rbx(r12), which never returns.
void oskit_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl oskit_fiber_switch
  .hidden oskit_fiber_switch
  .type oskit_fiber_switch, @function
  .p2align 4
oskit_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size oskit_fiber_switch, .-oskit_fiber_switch

  .globl oskit_fiber_start
  .hidden oskit_fiber_start
  .type oskit_fiber_start, @function
  .p2align 4
oskit_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size oskit_fiber_start, .-oskit_fiber_start
  .popsection
)");

namespace oskit {
namespace {

// AddressSanitizer must be told about every stack switch, or it reports
// false stack-buffer errors on the stack it thinks is still current.
// `fake_stack_save` null means the switching-away fiber is finished.
inline void StartSwitch(void** fake_stack_save, const void* bottom, size_t size) {
#ifdef OSKIT_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

inline void FinishSwitch(void* fake_stack, const void** old_bottom,
                         size_t* old_size) {
#ifdef OSKIT_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, old_bottom, old_size);
#else
  (void)fake_stack;
  (void)old_bottom;
  (void)old_size;
#endif
}

}  // namespace

Fiber::Fiber(std::string name, std::function<void()> entry, size_t stack_size)
    : name_(std::move(name)), entry_(std::move(entry)), stack_(stack_size) {}

Fiber* FiberScheduler::Spawn(std::string name, std::function<void()> entry,
                             size_t stack_size) {
  OSKIT_ASSERT_MSG(stack_size >= 4096, "fiber stack below 4 KiB");
  auto fiber = std::unique_ptr<Fiber>(
      new Fiber(std::move(name), std::move(entry), stack_size));
  Fiber* raw = fiber.get();
  raw->scheduler_ = this;

  // The first switch into the fiber pops this frame: the spawner's
  // floating-point control state, r12 = the fiber, rbx = FiberMain, rbp = 0
  // (ends frame-pointer walks), then returns into oskit_fiber_start with
  // the stack pointer at the 16-byte aligned top, so its call enters
  // FiberMain with the ABI's alignment.
  uint32_t mxcsr;
  uint16_t fpu_cw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  auto top = reinterpret_cast<uintptr_t>(raw->stack_.data() + raw->stack_.size());
  auto* frame = reinterpret_cast<uint64_t*>(top & ~uintptr_t{15}) - 8;
  frame[0] = mxcsr | (static_cast<uint64_t>(fpu_cw) << 32);
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = 0;  // r13
  frame[4] = reinterpret_cast<uint64_t>(raw);                        // r12
  frame[5] = reinterpret_cast<uint64_t>(&FiberScheduler::FiberMain);  // rbx
  frame[6] = 0;                                                      // rbp
  frame[7] = reinterpret_cast<uint64_t>(&oskit_fiber_start);         // ret
  raw->sp_ = frame;

  fibers_.push_back(std::move(fiber));
  ++live_count_;
  run_queue_.push_back(raw);
  return raw;
}

void FiberScheduler::FiberMain(Fiber* self) {
  FiberScheduler* sched = self->scheduler_;
  FinishSwitch(nullptr, &sched->scheduler_stack_bottom_,
               &sched->scheduler_stack_size_);
  self->entry_();
  self->state_ = Fiber::State::kDone;
  --sched->live_count_;
  sched->SwitchToScheduler(self);
  Panic("finished fiber resumed");
}

void FiberScheduler::SwitchTo(Fiber* fiber) {
  OSKIT_ASSERT_MSG(current_ == nullptr, "nested SwitchTo from fiber context");
  fiber->state_ = Fiber::State::kRunning;
  current_ = fiber;
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, fiber->stack_.data(), fiber->stack_.size());
  oskit_fiber_switch(&scheduler_sp_, fiber->sp_);
  FinishSwitch(fake_stack, nullptr, nullptr);
  current_ = nullptr;
}

void FiberScheduler::SwitchToScheduler(Fiber* self) {
  bool finished = self->state_ == Fiber::State::kDone;
  StartSwitch(finished ? nullptr : &self->asan_fake_stack_,
              scheduler_stack_bottom_, scheduler_stack_size_);
  oskit_fiber_switch(&self->sp_, scheduler_sp_);
  FinishSwitch(self->asan_fake_stack_, &scheduler_stack_bottom_,
               &scheduler_stack_size_);
}

void FiberScheduler::RunReady() {
  OSKIT_ASSERT_MSG(current_ == nullptr, "RunReady called from inside a fiber");
  while (!run_queue_.empty()) {
    Fiber* next = run_queue_.front();
    run_queue_.pop_front();
    if (next->state_ != Fiber::State::kRunnable) {
      continue;
    }
    SwitchTo(next);
    if (next->state_ == Fiber::State::kDone) {
      // Reap: fibers are few and short-lived enough for a linear sweep.
      for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
        if (it->get() == next) {
          fibers_.erase(it);
          break;
        }
      }
    }
  }
}

void FiberScheduler::BlockCurrent() {
  Fiber* self = current_;
  OSKIT_ASSERT_MSG(self != nullptr, "BlockCurrent outside any fiber");
  self->state_ = Fiber::State::kBlocked;
  SwitchToScheduler(self);
  // Resumed: Unblock() marked us runnable and RunReady() switched back.
  OSKIT_ASSERT(self->state_ == Fiber::State::kRunning);
}

void FiberScheduler::Unblock(Fiber* fiber) {
  OSKIT_ASSERT(fiber != nullptr);
  if (fiber->state_ == Fiber::State::kBlocked) {
    fiber->state_ = Fiber::State::kRunnable;
    run_queue_.push_back(fiber);
  }
}

void FiberScheduler::YieldCurrent() {
  Fiber* self = current_;
  OSKIT_ASSERT_MSG(self != nullptr, "YieldCurrent outside any fiber");
  self->state_ = Fiber::State::kRunnable;
  run_queue_.push_back(self);
  SwitchToScheduler(self);
  OSKIT_ASSERT(self->state_ == Fiber::State::kRunning);
}

}  // namespace oskit
