// Traced runs: per-layer host time measured from outside the program.
//
// Every object the benchmark hands to the program in a traced round goes
// through a COM interposer defined here (socket factory, sockets, selector,
// the Dir/File tree, and a BlkIo between each pair of stacked block layers).
// Each interposed call opens a Span on its layer's Site.  The interposers
// are transparent: they grant exactly the extension interfaces the inner
// object grants (SocketExt, SocketZeroCopy, BufIoVec, BlkIoBarrier,
// BlkIoRing), each of them interposed too, so a traced round takes the same
// path through the program as an untraced one — main.cc checks that their
// simulated results are identical.
//
// Attribution rules:
//  * A span's self time is its duration minus the spans nested inside it.
//  * A span "parked" when its fiber blocked inside it: engine events ran
//    or spans other than its own nested ones ran meanwhile.  A span that
//    parked outside its nested spans is counted and keeps its simulated
//    wait, and its host time goes to no layer.  A park inside a nested span
//    belongs to that span: the parent's self time (its duration minus the
//    nested spans) is still its own code, so a block layer over a disk that
//    always parks still gets its self time.
//  * An adopted fiber's code between two of its top-level spans (which can
//    not park: every blocking point is a span) is that fiber's self time —
//    the HTTP server's own code, or the benchmark's client code.
//  * What no attributed span or fiber gap covers is the residual: engine,
//    device models, interrupt-level receive and timers.

#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/com/blkio.h"
#include "src/com/filesystem.h"
#include "src/com/netselector.h"
#include "src/com/socket.h"
#include "src/machine/simulation.h"
#include "src/secure/principal.h"

namespace perfbench {

struct Site {
  uint64_t calls = 0;       // spans opened while armed
  uint64_t parked = 0;      // of which parked (themselves or nested)
  uint64_t attributed = 0;  // of which did not park outside nested spans
  uint64_t host_ns = 0;     // attributed self time (wall clock)
  uint64_t units = 0;       // bytes/items moved, all calls
  uint64_t attributed_units = 0;
  uint64_t sim_ns = 0;      // simulated time inside the calls, all calls
  uint64_t charges = 0;     // secure layer: quota gauges that rose

  double HostPerUnit() const {
    return attributed_units == 0
               ? 0.0
               : static_cast<double>(host_ns) / attributed_units;
  }
  double HostPerCall() const {
    return attributed == 0 ? 0.0 : static_cast<double>(host_ns) / attributed;
  }
};

class Span;

class Tracer {
 public:
  explicit Tracer(oskit::Simulation* sim) : sim_(sim) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Stable pointer to the named site (created on first use).
  Site* site(const std::string& name);
  const std::map<std::string, std::unique_ptr<Site>>& sites() const {
    return sites_;
  }
  // Sums over every site whose name starts with `prefix` and ends with
  // `suffix`.
  Site Sum(const std::string& prefix, const std::string& suffix = "") const;

  // Spans count only while armed (the measured phase).
  void Arm();
  void Disarm();
  bool armed() const { return armed_; }

  // The calling fiber's gaps between top-level spans go to `self_site`.
  void AdoptFiber(Site* self_site);

  // Total attributed host time: every site's self time, fiber gaps included.
  uint64_t AttributedNs() const;

 private:
  friend class Span;
  struct FiberState {
    Span* top = nullptr;     // innermost open span
    Site* self = nullptr;    // gap accounting target (adopted fibers)
    uint64_t last_exit = 0;  // wall time the last top-level span closed
    bool have_exit = false;
  };
  FiberState& state();

  oskit::Simulation* sim_;
  bool armed_ = false;
  uint64_t seq_ = 0;  // spans opened so far (detects foreign calls)
  std::map<std::string, std::unique_ptr<Site>> sites_;
  std::unordered_map<oskit::Fiber*, FiberState> fibers_;
};

// RAII span around one call into the program.  A null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, Site* site, uint64_t units = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_units(uint64_t n) { units_ += n; }
  void add_charges(uint64_t n) { charges_ += n; }

 private:
  Tracer* tracer_;
  Site* site_ = nullptr;
  Tracer::FiberState* fiber_ = nullptr;
  Span* parent_ = nullptr;
  bool counted_ = false;
  uint64_t units_ = 0;
  uint64_t charges_ = 0;
  uint64_t t0_ = 0;
  uint64_t events0_ = 0;
  uint64_t seq0_ = 0;
  uint64_t sim0_ = 0;
  uint64_t child_ns_ = 0;      // wall time inside nested spans
  uint64_t child_events_ = 0;  // engine events inside nested spans
  uint64_t child_seq_ = 0;     // spans opened inside nested spans
};

// Blocking helpers for benchmark fibers: a span (so fiber gaps never hide
// a park) around the simulator's own sleep / fiber block.
void TracedSleep(Tracer* tracer, oskit::Simulation* sim, uint64_t ns);

// ---- interposers (each is transparent; see the header comment) ----

oskit::ComPtr<oskit::SocketFactory> TraceSocketFactory(
    oskit::ComPtr<oskit::SocketFactory> inner, Tracer* tracer);
oskit::ComPtr<oskit::NetSelector> TraceSelector(
    oskit::ComPtr<oskit::NetSelector> inner, Tracer* tracer);
// `layer` prefixes the sites ("fs", "secure").  With `principal`, every
// call also counts the quota gauges of that principal that rose.
oskit::ComPtr<oskit::FileSystem> TraceFs(
    oskit::ComPtr<oskit::FileSystem> inner, Tracer* tracer,
    const std::string& layer, oskit::secure::Principal* principal = nullptr);
oskit::ComPtr<oskit::BlkIo> TraceBlkIo(oskit::ComPtr<oskit::BlkIo> inner,
                                       Tracer* tracer,
                                       const std::string& layer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
