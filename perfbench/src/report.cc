// Counter snapshots and the per-layer table of a traced round.

#include "perfbench/src/common.h"
#include "perfbench/src/tracer.h"
#include "src/fs/format.h"
#include "src/testbed/testbed.h"

namespace perfbench {

std::map<std::string, uint64_t> SnapshotWorld(oskit::testbed::World& world) {
  std::map<std::string, uint64_t> snap;
  snap["clock.events"] = world.sim().clock().events_run();
  for (size_t i = 0; i < world.host_count(); ++i) {
    oskit::testbed::Host& host = world.host(i);
    host.trace.registry.ForEach(
        [&](const char* name, uint64_t value, bool) { snap[name] += value; });
    for (const auto& nic : host.machine->nics()) {
      snap["nic.rx_frames"] += nic->rx_frames();
      snap["nic.tx_frames"] += nic->tx_frames();
    }
    for (const auto& disk : host.machine->disks()) {
      snap["disk.reads"] += disk->reads_completed();
      snap["disk.writes"] += disk->writes_completed();
      snap["disk.flushes"] += disk->flushes_completed();
    }
  }
  return snap;
}

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = {
      "machine.events_per_op",
      "machine.residual_host_ns_per_op",
      "machine.irqs_per_frame",
      "machine.disk_commands_per_op",
      "machine.disk_flushes_per_op",
      "glue.copied_bytes_per_byte",
      "glue.sg_segments_per_frame",
      "glue.rx_frames_per_poll",
      "net.send.host_ns_per_byte",
      "net.recv.host_ns_per_byte",
      "net.segments_per_op",
      "net.retransmits_per_op",
      "net.accept.host_ns_per_conn",
      "net.select.host_ns_per_wait",
      "net.select.events_per_wait",
      "http.server.self_host_ns_per_request",
      "http.client.parse_host_ns_per_response",
      "vm.dyn.host_ns_per_call",
      "fs.read.host_ns_per_byte",
      "fs.write.host_ns_per_byte",
      "fs.create.host_ns",
      "fs.unlink.host_ns",
      "fs.sync.host_ns",
      "fs.sync.sim_us",
      "fs.cache.hit_ratio",
      "fs.journal.bytes_per_user_byte",
      "fs.device_write_bytes_per_user_byte",
      "aio.checksum.self_host_ns_per_block",
      "aio.stripe.self_host_ns_per_block",
      "aio.ring.sqes_per_submit",
      "aio.ring.merge_ratio",
      "secure.self_host_ns_per_op",
      "secure.charges_per_op",
      "bench.self_host_ns_per_op",
      "trace.parked_call_share",
      "trace.overhead_host_ns_per_op",
  };
  return names;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Self host ns per 4 KB block over a block layer's read and write sites.
double SelfPerBlock(const Tracer& t, const std::string& layer) {
  Site rw = t.Sum(layer + ".", "read");
  Site w = t.Sum(layer + ".", "write");
  double blocks = static_cast<double>(rw.attributed_units + w.attributed_units) /
                  oskit::fs::kBlockSize;
  return Ratio(static_cast<double>(rw.host_ns + w.host_ns), blocks);
}

}  // namespace

void FillLayers(const Tracer& t, RoundResult* r) {
  auto c = [&](const char* name) -> double {
    auto it = r->counters.find(name);
    return it == r->counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto site = [&](const char* name) -> Site {
    auto it = t.sites().find(name);
    return it == t.sites().end() ? Site{} : *it->second;
  };
  const double ops = static_cast<double>(r->ops);
  const double bytes = static_cast<double>(r->bytes);
  auto& L = r->layers;

  L["machine.events_per_op"] = Ratio(c("clock.events"), ops);
  double attributed = static_cast<double>(t.AttributedNs());
  double wall = static_cast<double>(r->phase_wall_ns);
  L["machine.residual_host_ns_per_op"] =
      Ratio(wall > attributed ? wall - attributed : 0.0, ops);
  L["machine.irqs_per_frame"] =
      Ratio(c("machine.irq.dispatched"), c("nic.rx_frames"));
  L["machine.disk_commands_per_op"] =
      Ratio(c("disk.reads") + c("disk.writes"), ops);
  L["machine.disk_flushes_per_op"] = Ratio(c("disk.flushes"), ops);

  L["glue.copied_bytes_per_byte"] = Ratio(c("glue.send.copied_bytes"), bytes);
  L["glue.sg_segments_per_frame"] =
      Ratio(c("glue.send.sg_segments"), c("glue.send.sg_frames"));
  L["glue.rx_frames_per_poll"] =
      Ratio(c("glue.rx.poll.frames"), c("glue.rx.poll.polls"));

  L["net.send.host_ns_per_byte"] = site("net.send").HostPerUnit();
  L["net.recv.host_ns_per_byte"] = site("net.recv").HostPerUnit();
  L["net.segments_per_op"] = Ratio(c("net.tcp.out"), ops);
  L["net.retransmits_per_op"] = Ratio(c("net.tcp.retransmits"), ops);
  L["net.accept.host_ns_per_conn"] = site("net.accept").HostPerUnit();
  Site sel = site("net.select");
  L["net.select.host_ns_per_wait"] = sel.HostPerCall();
  L["net.select.events_per_wait"] =
      Ratio(static_cast<double>(sel.units), static_cast<double>(sel.calls));

  L["http.server.self_host_ns_per_request"] =
      Ratio(static_cast<double>(site("http.server.self").host_ns),
            c("http.requests"));
  L["http.client.parse_host_ns_per_response"] =
      site("http.client.parse").HostPerUnit();
  L["vm.dyn.host_ns_per_call"] = site("vm.dyn").HostPerCall();

  L["fs.read.host_ns_per_byte"] = site("fs.read").HostPerUnit();
  L["fs.write.host_ns_per_byte"] = site("fs.write").HostPerUnit();
  L["fs.create.host_ns"] = site("fs.create").HostPerCall();
  L["fs.unlink.host_ns"] = site("fs.unlink").HostPerCall();
  Site sync = site("fs.sync");
  L["fs.sync.host_ns"] = sync.HostPerCall();
  L["fs.sync.sim_us"] = Ratio(static_cast<double>(sync.sim_ns) / 1000.0,
                              static_cast<double>(sync.calls));
  L["fs.cache.hit_ratio"] =
      Ratio(c("fs.cache.hits"), c("fs.cache.hits") + c("fs.cache.misses"));
  double user_written = static_cast<double>(site("fs.write").units);
  L["fs.journal.bytes_per_user_byte"] =
      Ratio(c("fs.journal.blocks_logged") * oskit::fs::kBlockSize,
            user_written);
  L["fs.device_write_bytes_per_user_byte"] = Ratio(
      static_cast<double>(t.Sum("dev.", ".write").units +
                          t.Sum("dev.", ".submit").units),
      user_written);

  L["aio.checksum.self_host_ns_per_block"] = SelfPerBlock(t, "aio.checksum");
  L["aio.stripe.self_host_ns_per_block"] = SelfPerBlock(t, "aio.stripe");
  L["aio.ring.sqes_per_submit"] =
      Ratio(c("glue.ide.ring.sqes") + c("aio.ring.sync_sqes"),
            static_cast<double>(t.Sum("", ".submit").calls));
  L["aio.ring.merge_ratio"] =
      Ratio(c("glue.ide.ring.merged_sqes"), c("glue.ide.ring.sqes"));

  Site sec = t.Sum("secure.");
  L["secure.self_host_ns_per_op"] = Ratio(static_cast<double>(sec.host_ns), ops);
  L["secure.charges_per_op"] = Ratio(static_cast<double>(sec.charges), ops);

  L["bench.self_host_ns_per_op"] =
      Ratio(static_cast<double>(site("bench.client").host_ns), ops);
  Site all = t.Sum("");
  L["trace.parked_call_share"] =
      Ratio(static_cast<double>(all.parked), static_cast<double>(all.calls));
}

}  // namespace perfbench
