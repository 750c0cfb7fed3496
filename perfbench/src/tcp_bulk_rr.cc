// tcp_bulk_rr: bulk stream and 1-byte request/response on one segment.
//
// Two kOskitNapi hosts (FreeBSD-idiom stack over the Linux driver glue,
// coalesced IRQs + polled RX, scatter-gather transmit) on the two-host
// 100 Mbit/s Ethernet segment.  Host "tx" streams a seeded byte pattern to
// host "rx" in fixed 16 KB messages while, at the same time, its rr client
// runs closed-loop 1-byte exchanges against an echo server on "rx", with a
// seeded exponential think time between exchanges.  The stream runs until
// the last exchange completes, so both share the wire for the whole phase.
//
// Set-up: boot both hosts, establish both connections.
// Op: one bulk message received, or one verified exchange.
// Bytes: bulk payload plus the two bytes of every exchange.
// Latency sample: the simulated round trip of each exchange.
// The sink reads 8 KB per call.
// Checks: a digest of the pattern computed from the generator at the sender
// equals the digest of the bytes the receiver read, the byte counts agree,
// and every reply echoes its request.

#include <cmath>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/tracer.h"
#include "src/base/random.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace perfbench {

namespace {

constexpr uint16_t kBulkPort = 5001;
constexpr uint16_t kRrPort = 5002;
constexpr size_t kMessage = 16 * 1024;
constexpr int kExchanges = 1200;
constexpr double kMeanThinkUs = 400;
constexpr uint64_t kPatternStream = 1;

}  // namespace

RoundResult RunTcpBulkRr(uint64_t seed, bool traced) {
  const uint64_t round_cpu = CpuNs();
  RoundResult r;
  std::unique_ptr<Tracer> tracer_owner;

  EthernetWire::Config wire;
  wire.bits_per_second = 100ull * 1000 * 1000;
  wire.propagation_ns = 5 * kNsPerUs;
  World world(wire);
  Simulation& sim = world.sim();
  Host& rx = world.AddHost("rx", NetConfig::kOskitNapi);
  Host& tx = world.AddHost("tx", NetConfig::kOskitNapi);
  if (traced) {
    tracer_owner = std::make_unique<Tracer>(&sim);
  }
  Tracer* tracer = tracer_owner.get();
  auto factory = [&](Host& h) {
    return tracer != nullptr ? TraceSocketFactory(h.socket_factory, tracer)
                             : h.socket_factory;
  };
  ComPtr<SocketFactory> rx_factory = factory(rx);
  ComPtr<SocketFactory> tx_factory = factory(tx);
  auto make = [](SocketFactory* f) {
    ComPtr<Socket> s;
    OSKIT_ASSERT(Ok(f->Create(SockDomain::kInet, SockType::kStream, s.Receive())));
    return s;
  };

  Phase phase(&sim, tracer, [&] { return SnapshotWorld(world); });
  Gate listening(&sim, tracer);
  Gate go(&sim, tracer);
  int to_start = 4;   // fibers still setting up
  int to_finish = 2;  // stream receiver + rr client
  auto ready = [&] {
    if (--to_start == 0) {
      phase.Begin();
      go.Open();
    } else {
      go.Wait();
    }
  };
  auto finished = [&] {
    if (--to_finish == 0) {
      phase.End();
    }
  };

  bool rr_done = false;
  uint64_t sent_bytes = 0, received_bytes = 0;
  uint64_t messages_tried = 0, messages = 0;
  Digest sent_digest, received_digest;
  int exchanges_tried = 0, exchanges = 0, bad_echoes = 0, errors = 0;
  int listeners = 2;

  // ---- host rx: stream sink and echo server ----
  sim.Spawn("rx/sink", [&] {
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
    ComPtr<Socket> listener = make(rx_factory.get());
    OSKIT_ASSERT(Ok(listener->Bind(SockAddr{kInetAny, kBulkPort})));
    OSKIT_ASSERT(Ok(listener->Listen(1)));
    if (--listeners == 0) listening.Open();
    SockAddr peer;
    ComPtr<Socket> conn;
    OSKIT_ASSERT(Ok(listener->Accept(&peer, conn.Receive())));
    ready();
    // 8 KB reads: smaller than a coalesced batch, so some receives find
    // data ready and never park (their host time is attributable).
    std::vector<uint8_t> buf(8 * 1024);
    for (;;) {
      size_t n = 0;
      if (!Ok(conn->Recv(buf.data(), buf.size(), &n))) {
        ++errors;
        break;
      }
      if (n == 0) {
        break;
      }
      received_digest.Feed(buf.data(), n);
      received_bytes += n;
    }
    finished();
  });
  sim.Spawn("rx/echo", [&] {
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
    ComPtr<Socket> listener = make(rx_factory.get());
    OSKIT_ASSERT(Ok(listener->Bind(SockAddr{kInetAny, kRrPort})));
    OSKIT_ASSERT(Ok(listener->Listen(1)));
    if (--listeners == 0) listening.Open();
    SockAddr peer;
    ComPtr<Socket> conn;
    OSKIT_ASSERT(Ok(listener->Accept(&peer, conn.Receive())));
    ready();
    for (;;) {
      uint8_t byte = 0;
      size_t n = 0;
      if (!Ok(conn->Recv(&byte, 1, &n))) {
        ++errors;
        break;
      }
      if (n == 0) {
        break;
      }
      if (!Ok(conn->Send(&byte, 1, &n)) || n != 1) {
        ++errors;
        break;
      }
    }
  });

  // ---- host tx: stream source and rr client ----
  sim.Spawn("tx/source", [&] {
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
    listening.Wait();
    ComPtr<Socket> conn = make(tx_factory.get());
    OSKIT_ASSERT(Ok(conn->Connect(SockAddr{rx.addr, kBulkPort})));
    ready();
    // One generated period of the pattern, reused message after message:
    // generating every byte afresh would make the benchmark, not the
    // stack, the per-byte cost.
    std::vector<uint8_t> pattern(kMessage * 64);
    GenFill(seed, kPatternStream, 0, pattern.data(), pattern.size());
    size_t at = 0;
    while (!rr_done) {
      const uint8_t* msg = pattern.data() + at;
      sent_digest.Feed(msg, kMessage);
      ++messages_tried;
      size_t n = 0;
      if (!Ok(conn->Send(msg, kMessage, &n)) || n != kMessage) {
        ++errors;
        break;
      }
      sent_bytes += kMessage;
      ++messages;
      at = (at + kMessage) % pattern.size();
    }
    conn->Shutdown(SockShutdown::kWrite);
  });
  sim.Spawn("tx/rr", [&] {
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
    listening.Wait();
    ComPtr<Socket> conn = make(tx_factory.get());
    OSKIT_ASSERT(Ok(conn->Connect(SockAddr{rx.addr, kRrPort})));
    ready();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
    for (int i = 0; i < kExchanges; ++i) {
      double think = -kMeanThinkUs * std::log(1.0 - rng.Unit());
      TracedSleep(tracer, &sim, static_cast<SimTime>(think * kNsPerUs));
      uint8_t request = static_cast<uint8_t>(rng.Next());
      uint8_t reply = static_cast<uint8_t>(~request);
      SimTime t0 = sim.clock().Now();
      ++exchanges_tried;
      size_t n = 0;
      if (!Ok(conn->Send(&request, 1, &n)) || n != 1 ||
          !Ok(conn->Recv(&reply, 1, &n)) || n != 1) {
        ++errors;
        break;
      }
      r.lat_ns.push_back(sim.clock().Now() - t0);
      if (reply != request) {
        ++bad_echoes;
      } else {
        ++exchanges;
      }
    }
    rr_done = true;
    conn->Shutdown(SockShutdown::kWrite);
    finished();
  });

  Simulation::RunResult run = sim.Run(sim.clock().Now() + 3600 * kNsPerSec);
  if (run != Simulation::RunResult::kAllDone) {
    r.Fail("tcp_bulk_rr: simulation did not run to completion");
  }
  phase.Report(round_cpu, &r);
  r.bytes = sent_bytes + 2 * static_cast<uint64_t>(exchanges);
  if (errors != 0) r.Fail("tcp_bulk_rr: a socket call failed");
  if (bad_echoes != 0) r.Fail("tcp_bulk_rr: a reply did not echo its request");
  if (exchanges + bad_echoes != kExchanges) {
    r.Fail("tcp_bulk_rr: exchanges missing");
  }
  // The stream's messages are verified together, by the digest.
  bool stream_ok = received_bytes == sent_bytes &&
                   received_digest.Final() == sent_digest.Final();
  if (!stream_ok) r.Fail("tcp_bulk_rr: stream bytes or digest mismatch");
  r.attempted = messages_tried + static_cast<uint64_t>(exchanges_tried);
  r.ops = (stream_ok ? messages : 0) + static_cast<uint64_t>(exchanges);
  r.failed = r.attempted - r.ops;
  if (tracer != nullptr) {
    FillLayers(*tracer, &r);
  }
  return r;
}

}  // namespace perfbench
