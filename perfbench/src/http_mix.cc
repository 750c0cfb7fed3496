// http_mix: the flagship request path under open-loop load.
//
// One kOskitNapi server ("www": FreeBSD-idiom stack over the Linux driver
// glue, coalesced IRQs + polled RX, scatter-gather, sendfile) runs
// http::Server over journaled FFS on one IDE disk, serving 48 static files
// of 512 B .. 64 KB (512 << (i % 8)) and the KVM servlet /dyn/add.  Four
// kNativeBsd loadgen hosts on a 1 Gbit/s VirtualSwitch each generate
// kArrivals open-loop arrivals with exponential gaps, whose mean is set so
// that the responses offer kLoad (65%) of the server's switch port, of
// three kinds:
//   55%  GET on one of the host's kHolders keep-alive connections (sent at
//        its due time even while earlier responses are outstanding);
//   25%  a new Connection: close connection (a quarter of them /dyn/add);
//   20%  a new connection carrying a pipelined burst of kBurst GETs.
// Static targets are zipf(1.0)-popular over a seeded ranking of the files
// (shuffled within each size class).
//
// Set-up: boot five hosts, mkfs, populate the volume (which leaves the
// catalogue in the block cache) and Sync, start the server, warm ARP, establish the keep-alive connections.
// Op: one request whose response was validated.  Bytes: response bodies.
// Latency sample: from the request's due time to its full response.
// Checks: every body equals the generator's bytes for its file, every
// /dyn/add answer equals a+b computed here, and the server's response
// count equals the validated count (plus the final quit request).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/tracer.h"
#include "src/base/random.h"
#include "src/dev/linux/linux_ide.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/ffs.h"
#include "src/http/http.h"
#include "src/http/server.h"
#include "src/testbed/testbed.h"
#include "src/vm/kvm.h"

using namespace oskit;
using namespace oskit::testbed;

namespace perfbench {

namespace {

constexpr uint16_t kPort = 8080;
constexpr int kFiles = 48;
constexpr int kLoadHosts = 4;
constexpr int kHolders = 8;  // keep-alive connections per loadgen host
constexpr int kArrivals = 1600;  // per loadgen host
// Arrival mix, in percent; the rest (20%) open a connection carrying a
// pipelined burst of kBurst GETs.
constexpr int kHolderPercent = 55;  // GET on a keep-alive holder
constexpr int kClosePercent = 25;   // one request, Connection: close
constexpr int kDynOneIn = 4;        // close requests that are /dyn/add
constexpr int kBurst = 4;
// Offered load: the share of the server's switch port the responses use,
// counting each body, an HTTP header of about kResponseHeaderBytes and the
// framing of full-size Ethernet frames (preamble, header, CRC and gap per
// 1460-byte TCP segment).
constexpr uint64_t kPortBitsPerSec = 1000ull * 1000 * 1000;
constexpr double kLoad = 0.65;
constexpr double kResponseHeaderBytes = 128;
constexpr double kWireBytesPerPayloadByte = 1538.0 / 1460;
constexpr uint64_t kDiskBytes = 24 * 1024 * 1024;
constexpr uint64_t kFileStreamBase = 1000;

size_t FileSize(int i) { return size_t{512} << (i % 8); }

constexpr char kDynProgram[] =
    "gload 0\n"
    "gload 1\n"
    "add\n"
    "sys 2\n"
    "halt\n";

// Collects the servlet's kSysPutInt output.
class ConsoleSys : public vm::SysHandler {
 public:
  explicit ConsoleSys(std::string* out) : out_(out) {}
  Error Syscall(uint16_t number, vm::Vm& vm, int thread) override {
    if (number != vm::kSysPutInt) {
      return Error::kNotImpl;
    }
    out_->append(std::to_string(vm.Pop(thread)));
    return Error::kOk;
  }

 private:
  std::string* out_;
};

int64_t QueryArg(const std::string& target, const char* key) {
  std::string needle = std::string(key) + "=";
  size_t q = target.find('?');
  size_t at = q == std::string::npos ? std::string::npos
                                     : target.find(needle, q);
  return at == std::string::npos
             ? 0
             : std::strtoll(target.c_str() + at + needle.size(), nullptr, 10);
}

// One expected response.
struct Expect {
  SimTime due;
  int file;     // -1: /dyn/add
  int64_t sum;  // /dyn/add answer
};

struct ClientConn {
  ComPtr<Socket> sock;
  http::ResponseParser parser;
  std::deque<Expect> expect;
  std::string staged;  // request bytes to send once connected
  bool holder = false;
  bool connected = false;
  bool done = false;
};

struct LoadHost {
  ComPtr<SocketFactory> factory;
  ComPtr<NetSelector> selector;
  std::vector<std::unique_ptr<ClientConn>> conns;
  uint64_t scheduled = 0;  // requests sent or staged
  uint64_t settled = 0;    // validated + failed
  bool launched = false;   // every arrival generated
};

}  // namespace

RoundResult RunHttpMix(uint64_t seed, bool traced) {
  const uint64_t round_cpu = CpuNs();
  RoundResult r;
  std::unique_ptr<Tracer> tracer_owner;

  VirtualSwitch::Config sw;
  sw.port.bits_per_second = kPortBitsPerSec;
  sw.port.propagation_ns = 5 * kNsPerUs;
  World world(sw);
  Simulation& sim = world.sim();
  Host& server = world.AddHost("www", NetConfig::kOskitNapi);
  for (int h = 0; h < kLoadHosts; ++h) {
    world.AddHost("load" + std::to_string(h), NetConfig::kNativeBsd);
  }
  server.machine->AddDisk(kDiskBytes / 512);
  if (traced) {
    tracer_owner = std::make_unique<Tracer>(&sim);
  }
  Tracer* tracer = tracer_owner.get();
  auto trace_factory = [&](ComPtr<SocketFactory> f) {
    return tracer != nullptr ? TraceSocketFactory(std::move(f), tracer) : f;
  };
  auto trace_selector = [&](ComPtr<NetSelector> s) {
    return tracer != nullptr ? TraceSelector(std::move(s), tracer) : s;
  };
  Site* parse_site = tracer != nullptr ? tracer->site("http.client.parse")
                                       : nullptr;
  Site* vm_site = tracer != nullptr ? tracer->site("vm.dyn") : nullptr;

  DeviceRegistry disks;
  OSKIT_ASSERT(Ok(linuxdev::InitLinuxIde(server.fdev, server.machine.get(),
                                         &disks)));
  ComPtr<BlkIo> hda = ComPtr<BlkIo>::FromQuery(disks.LookupByName("hda").get());

  std::vector<uint8_t> servlet;
  std::string asm_error;
  OSKIT_ASSERT(Ok(vm::Assemble(kDynProgram, &servlet, &asm_error)));

  // Seeded popularity: zipf over a seeded ranking of the files.
  std::vector<int> ranking(kFiles);
  std::vector<double> cdf(kFiles);
  {
    Rng rng(seed ^ 0x5ca1ab1e);
    for (int i = 0; i < kFiles; ++i) ranking[i] = i;
    // Shuffle only among files of one size (i % 8), so the seed moves which
    // file, where on disk, is popular, but not how many bytes a rank costs.
    for (int i = kFiles - 1; i >= 8; --i) {
      int j = i % 8 + 8 * static_cast<int>(rng.Below(i / 8 + 1));
      std::swap(ranking[i], ranking[j]);
    }
    double total = 0;
    for (int i = 0; i < kFiles; ++i) {
      total += 1.0 / (i + 1);
      cdf[i] = total;
    }
    for (double& c : cdf) c /= total;
  }
  auto pick_file = [&](Rng& rng) {
    double u = rng.Unit();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return ranking[std::min(rank, static_cast<size_t>(kFiles - 1))];
  };

  // Mean gap between one loadgen host's arrivals, from the offered load.
  // The shuffle keeps each rank's size, so this does not depend on the seed.
  double mean_body = 0;
  for (int rank = 0; rank < kFiles; ++rank) {
    double p = cdf[rank] - (rank == 0 ? 0.0 : cdf[rank - 1]);
    mean_body += p * static_cast<double>(FileSize(ranking[rank]));
  }
  const double close_share = kClosePercent / 100.0;
  const double burst_share = (100 - kHolderPercent - kClosePercent) / 100.0;
  const double dyn_per_arrival = close_share / kDynOneIn;
  const double static_per_arrival = kHolderPercent / 100.0 + close_share -
                                    dyn_per_arrival + burst_share * kBurst;
  const double bits_per_arrival =
      8 * kWireBytesPerPayloadByte *
      (static_per_arrival * (mean_body + kResponseHeaderBytes) +
       dyn_per_arrival * kResponseHeaderBytes);
  const double mean_gap_ns = kLoadHosts * bits_per_arrival /
                             (kLoad * static_cast<double>(kPortBitsPerSec)) *
                             1e9;

  Phase phase(&sim, tracer, [&] { return SnapshotWorld(world); });
  Gate listening(&sim, tracer);
  Gate go(&sim, tracer);
  int hosts_ready = 0, hosts_done = 0;
  uint64_t validated = 0, failures = 0, body_bytes = 0;
  std::string first_failure;
  auto fail = [&](const std::string& why) {
    ++failures;
    if (first_failure.empty()) first_failure = why;
  };

  // ---- the server ----
  std::unique_ptr<http::Server> httpd;
  bool server_done = false;
  sim.Spawn("www/httpd", [&] {
    std::vector<Partition> layout = {
        {.start_sector = 64,
         .sector_count = kDiskBytes / 512 - 64,
         .type = kPartTypeOskitFs},
    };
    OSKIT_ASSERT(Ok(WriteMbr(hda.get(), layout)));
    std::vector<Partition> found;
    OSKIT_ASSERT(Ok(ReadPartitions(hda.get(), &found)));
    ComPtr<BlkIo> part = MakePartitionView(hda.get(), found[0]);
    if (tracer != nullptr) {
      part = TraceBlkIo(part, tracer, "dev.hda");
    }
    OSKIT_ASSERT(Ok(fs::Mkfs(part.get())));
    fs::MountOptions mo;
    mo.trace = &server.trace;
    ComPtr<FileSystem> ffs;
    OSKIT_ASSERT(Ok(fs::Offs::Mount(part.get(), mo, ffs.Receive())));
    {
      ComPtr<Dir> root;
      OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));
      OSKIT_ASSERT(Ok(root->Mkdir("files", 0755)));
      ComPtr<File> dir_file;
      OSKIT_ASSERT(Ok(root->Lookup("files", dir_file.Receive())));
      ComPtr<Dir> dir = ComPtr<Dir>::FromQuery(dir_file.get());
      std::vector<uint8_t> body(FileSize(7));
      for (int i = 0; i < kFiles; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "f%02d.bin", i);
        ComPtr<File> f;
        OSKIT_ASSERT(Ok(dir->Create(name, 0644, f.Receive())));
        GenFill(seed, kFileStreamBase + i, 0, body.data(), FileSize(i));
        size_t n = 0;
        OSKIT_ASSERT(Ok(f->Write(body.data(), 0, FileSize(i), &n)));
      }
    }
    // The catalogue (~0.8 MB) fits the 1 MB block cache: after the Sync the
    // measured phase serves from a warm cache, so its tail is the request
    // path's, not a seed-dependent pile-up behind the first cold misses
    // (fs_journal measures reads outside the cache).
    OSKIT_ASSERT(Ok(ffs->Sync()));
    if (tracer != nullptr) {
      ffs = TraceFs(ffs, tracer, "fs");
    }
    ComPtr<Dir> root;
    OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));

    http::Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.backlog = 1024;
    cfg.trace = &server.trace;
    cfg.now = [&sim] { return sim.clock().Now(); };
    httpd = std::make_unique<http::Server>(
        trace_factory(server.socket_factory),
        trace_selector(server.stack->CreateSelector()), root, cfg);
    httpd->AddDynRoute("/dyn/add", [&](const http::Request& req,
                                       std::string* body,
                                       std::string* type) -> int {
      Span span(tracer, vm_site);
      std::string out;
      ConsoleSys sys(&out);
      vm::Vm machine(servlet, &sys);
      if (!Ok(machine.Verify())) {
        return 500;
      }
      machine.set_global(0, QueryArg(req.target, "a"));
      machine.set_global(1, QueryArg(req.target, "b"));
      machine.SpawnThread(0);
      if (!Ok(machine.Run())) {
        return 500;
      }
      *body = out + "\n";
      *type = "text/plain";
      return 200;
    });
    OSKIT_ASSERT(Ok(httpd->Start()));
    listening.Open();
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("http.server.self"));
    httpd->Run();
    root.Reset();
    OSKIT_ASSERT(Ok(ffs->Unmount()));
    server_done = true;
  });

  // ---- the loadgen hosts ----
  std::vector<LoadHost> loads(kLoadHosts);
  auto open_conn = [&](LoadHost& lh, bool holder) -> ClientConn* {
    auto conn = std::make_unique<ClientConn>();
    conn->holder = holder;
    OSKIT_ASSERT(Ok(lh.factory->Create(SockDomain::kInet, SockType::kStream,
                                       conn->sock.Receive())));
    lh.conns.push_back(std::move(conn));
    return lh.conns.back().get();
  };
  auto set_nonblocking = [](Socket* s) {
    ComPtr<SocketExt> ext = ComPtr<SocketExt>::FromQuery(s);
    OSKIT_ASSERT(ext && Ok(ext->SetNonBlocking(true)));
  };
  auto send_all = [&](ClientConn* c, const std::string& wire) {
    size_t n = 0;
    if (!Ok(c->sock->Send(wire.data(), wire.size(), &n)) || n != wire.size()) {
      fail("request send failed");
    }
  };

  for (int h = 0; h < kLoadHosts; ++h) {
    Host& lg = world.host(1 + static_cast<size_t>(h));
    LoadHost& lh = loads[static_cast<size_t>(h)];
    lh.factory = trace_factory(lg.socket_factory);

    // Launcher: set-up, then the open-loop arrival process.
    sim.Spawn("load/launcher", [&, h] {
      if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
      listening.Wait();
      SimTime rtt = 0;
      lg.stack->Ping(server.addr, kNsPerSec, &rtt);  // warm ARP
      lh.selector = trace_selector(lg.stack->CreateSelector());
      for (int i = 0; i < kHolders; ++i) {
        ClientConn* c = open_conn(lh, true);
        OSKIT_ASSERT(Ok(c->sock->Connect(SockAddr{server.addr, kPort})));
        c->connected = true;
        set_nonblocking(c->sock.get());
        OSKIT_ASSERT(Ok(lh.selector->Add(c->sock.get(), kNetReadable,
                                         /*edge=*/true, c)));
      }
      if (++hosts_ready == kLoadHosts) {
        phase.Begin();
        go.Open();
      } else {
        go.Wait();
      }
      Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(h) * 7919);
      SimTime due = sim.clock().Now();
      for (int a = 0; a < kArrivals; ++a) {
        due += static_cast<SimTime>(-mean_gap_ns * std::log(1.0 - rng.Unit()));
        if (due > sim.clock().Now()) {
          TracedSleep(tracer, &sim, due - sim.clock().Now());
        }
        uint64_t kind = rng.Below(100);
        if (kind < kHolderPercent) {
          ClientConn* c = lh.conns[rng.Below(kHolders)].get();
          int f = pick_file(rng);
          c->expect.push_back({due, f, 0});
          ++lh.scheduled;
          send_all(c, "GET /files/f" + std::string(f < 10 ? "0" : "") +
                          std::to_string(f) + ".bin HTTP/1.1\r\n\r\n");
          continue;
        }
        ClientConn* c = open_conn(lh, false);
        set_nonblocking(c->sock.get());
        int requests = kind < kHolderPercent + kClosePercent ? 1 : kBurst;
        for (int k = 0; k < requests; ++k) {
          const char* close = k == requests - 1 ? "Connection: close\r\n" : "";
          if (requests == 1 && rng.Below(kDynOneIn) == 0) {
            int64_t x = static_cast<int64_t>(rng.Below(1000));
            int64_t y = static_cast<int64_t>(rng.Below(1000));
            c->staged += "GET /dyn/add?a=" + std::to_string(x) +
                         "&b=" + std::to_string(y) + " HTTP/1.1\r\n" + close +
                         "\r\n";
            c->expect.push_back({due, -1, x + y});
          } else {
            int f = pick_file(rng);
            c->staged += "GET /files/f" + std::string(f < 10 ? "0" : "") +
                         std::to_string(f) + ".bin HTTP/1.1\r\n" + close +
                         "\r\n";
            c->expect.push_back({due, f, 0});
          }
          ++lh.scheduled;
        }
        Error err = c->sock->Connect(SockAddr{server.addr, kPort});
        if (err != Error::kWouldBlock && !Ok(err)) {
          fail("connect failed");
          lh.settled += c->expect.size();
          c->done = true;
          continue;
        }
        OSKIT_ASSERT(Ok(lh.selector->Add(c->sock.get(), kNetWritable,
                                         /*edge=*/true, c)));
      }
      // Set before any response to the last arrival can come back: sends
      // and nonblocking connects above never park this fiber.
      lh.launched = true;
    });

    // Harvester: drives every connection of the host off its selector.
    sim.Spawn("load/harvester", [&, h] {
      if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
      go.Wait();
      NetReadyEvent events[64];
      std::vector<uint8_t> buf(16 * 1024);
      auto finish = [&](ClientConn* c) {
        lh.selector->Remove(c->sock.get());
        c->sock.Reset();
        c->done = true;
      };
      while (!(lh.launched && lh.settled == lh.scheduled)) {
        size_t n = 0;
        if (!Ok(lh.selector->Wait(events, 64, /*block=*/true, &n))) {
          fail("selector wait failed");
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          auto* c = static_cast<ClientConn*>(events[i].token);
          if (c->done) continue;
          if ((events[i].events & kNetError) != 0) {
            fail("connection error");
            lh.settled += c->expect.size();
            finish(c);
            continue;
          }
          if (!c->connected) {
            if ((events[i].events & kNetWritable) == 0) continue;
            c->connected = true;
            send_all(c, c->staged);
            lh.selector->Modify(c->sock.get(), kNetReadable, /*edge=*/true);
            continue;
          }
          size_t got = 0;
          Error err;
          bool eof = false;
          while ((err = c->sock->Recv(buf.data(), buf.size(), &got)) ==
                     Error::kOk &&
                 got > 0) {
            Span span(tracer, parse_site);
            c->parser.Feed(buf.data(), got);
            while (c->parser.HasResponse()) {
              http::Response resp = c->parser.TakeResponse();
              span.add_units(1);
              if (c->expect.empty()) {
                fail("unexpected response");
                continue;
              }
              Expect e = c->expect.front();
              c->expect.pop_front();
              ++lh.settled;
              bool good = resp.status == 200;
              if (good && e.file >= 0) {
                good = resp.body.size() == FileSize(e.file) &&
                       GenEqual(seed, kFileStreamBase + e.file, 0,
                                reinterpret_cast<const uint8_t*>(
                                    resp.body.data()),
                                resp.body.size());
              } else if (good) {
                good = resp.body == std::to_string(e.sum) + "\n";
              }
              if (!good) {
                fail("response body or status wrong");
                continue;
              }
              ++validated;
              body_bytes += resp.body.size();
              r.lat_ns.push_back(sim.clock().Now() - e.due);
            }
            if (c->parser.status() == http::ParseStatus::kError) {
              fail("response parse error");
              break;
            }
          }
          eof = Ok(err) && got == 0;
          if (!c->holder && c->expect.empty()) {
            finish(c);
          } else if (eof || (!Ok(err) && err != Error::kWouldBlock)) {
            fail("connection ended with responses outstanding");
            lh.settled += c->expect.size();
            c->expect.clear();
            finish(c);
          }
        }
      }
      if (++hosts_done == kLoadHosts) {
        phase.End();
      }
      // Tear down: close the keep-alive connections; the last host asks
      // the server to quit.
      for (auto& c : lh.conns) {
        if (!c->done && c->sock) finish(c.get());
      }
      lh.selector.Reset();
      if (hosts_done == kLoadHosts) {
        ComPtr<Socket> q;
        OSKIT_ASSERT(Ok(lh.factory->Create(SockDomain::kInet, SockType::kStream,
                                           q.Receive())));
        OSKIT_ASSERT(Ok(q->Connect(SockAddr{server.addr, kPort})));
        std::string quit = "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n";
        size_t sent = 0;
        OSKIT_ASSERT(Ok(q->Send(quit.data(), quit.size(), &sent)));
        char drain[512];
        size_t got = 0;
        while (Ok(q->Recv(drain, sizeof(drain), &got)) && got > 0) {
        }
      }
    });
  }

  Simulation::RunResult run = sim.Run(sim.clock().Now() + 3600 * kNsPerSec);
  if (run != Simulation::RunResult::kAllDone || !server_done) {
    r.Fail("http_mix: simulation did not run to completion");
  }
  phase.Report(round_cpu, &r);
  uint64_t scheduled = 0;
  for (const LoadHost& lh : loads) scheduled += lh.scheduled;
  r.attempted = scheduled;
  r.ops = validated;
  r.failed = scheduled - validated;
  r.bytes = body_bytes;
  if (failures != 0) r.Fail("http_mix: " + first_failure);
  if (validated != scheduled) r.Fail("http_mix: responses missing");
  if (httpd && httpd->responses() != validated + 1) {
    r.Fail("http_mix: server response count " +
           std::to_string(httpd->responses()) + " != validated " +
           std::to_string(validated) + " + quit");
  }
  if (tracer != nullptr) {
    FillLayers(*tracer, &r);
  }
  return r;
}

}  // namespace perfbench
