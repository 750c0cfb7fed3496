// fs_journal: one tenant's closed-loop file traffic on a stacked volume.
//
// Composition, top to bottom: the tenant's Dir/File tree from src/secure's
// MakeSecureFs (quota + ACL wrappers, journal-transaction admission
// installed), journaled FFS (4 KB blocks, 256-block cache = 1 MB),
// aio::ChecksumBlkIo, a two-way aio::StripeBlkIo (16 KB unit) over two IDE
// disks behind the Linux IDE glue.
//
// The tenant keeps a hot set (24 files of 8..16 KB, ~288 KB, fits the
// cache) and a cold set (64 files of 44..84 KB, ~4 MB, four times the
// cache) under /data, sizes drawn from the seed in 4 KB steps, and runs
// kOps seeded operations, one at a time:
//   50% read back a cold file     15% read back a hot file
//   15% overwrite a file (hot or cold, whole file, new content version)
//   10% unlink a file and create + write it again
//   10% Sync of the filesystem (every tenth op, fixed)
// Every read is byte-compared with the generator.
//
// Set-up: boot, mkfs, mount, wrap, populate both sets, Sync.
// Op: one of the operations above.  Bytes: file bytes read or written.
// Latency sample: the simulated time of the op's FS calls.
// Checks after the phase: every file reads back its last version; after
// unlinking everything and removing /data the free block count equals the
// count right after mkfs; after unmount fsck finds the volume consistent;
// every quota gauge the tenant charged has drained to zero.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/tracer.h"
#include "src/aio/stack.h"
#include "src/base/random.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace perfbench {

namespace {

constexpr int kHotFiles = 24;
constexpr size_t kHotMin = 8 * 1024;     // hot sizes: 8..16 KB, 4 KB steps
constexpr size_t kHotMax = 16 * 1024;
constexpr int kColdFiles = 64;
constexpr size_t kColdMin = 44 * 1024;   // cold sizes: 44..84 KB, 4 KB steps
constexpr size_t kColdMax = 84 * 1024;
constexpr int kOps = 3000;
constexpr int kSyncEvery = 10;
constexpr uint64_t kDiskSectors = 16 * 1024 * 1024 / 512;
constexpr uint32_t kStripeUnit = 16 * 1024;
constexpr int kSecondDiskIrq = 15;  // the secondary IDE channel's line

struct FileSlot {
  std::string name;
  size_t size;
  uint64_t version = 0;
};

uint64_t Stream(int file, uint64_t version) {
  return (static_cast<uint64_t>(file) << 32) | version;
}

}  // namespace

RoundResult RunFsJournal(uint64_t seed, bool traced) {
  const uint64_t round_cpu = CpuNs();
  RoundResult r;
  std::unique_ptr<Tracer> tracer_owner;

  World world;
  Simulation& sim = world.sim();
  Host& host = world.AddHost("fs", NetConfig::kNativeBsd);
  host.machine->AddDisk(kDiskSectors);                // hda, IRQ 14
  host.machine->AddDisk(kDiskSectors, kSecondDiskIrq);  // hdb
  if (traced) {
    tracer_owner = std::make_unique<Tracer>(&sim);
  }
  Tracer* tracer = tracer_owner.get();
  auto layer = [&](ComPtr<BlkIo> io, const char* name) {
    return tracer != nullptr ? TraceBlkIo(std::move(io), tracer, name) : io;
  };

  DeviceRegistry disks;
  OSKIT_ASSERT(Ok(linuxdev::InitLinuxIde(host.fdev, host.machine.get(), &disks)));
  ComPtr<BlkIo> hda = ComPtr<BlkIo>::FromQuery(disks.LookupByName("hda").get());
  ComPtr<BlkIo> hdb = ComPtr<BlkIo>::FromQuery(disks.LookupByName("hdb").get());
  std::vector<ComPtr<BlkIo>> members;
  members.push_back(layer(hda, "dev.hda"));
  members.push_back(layer(hdb, "dev.hdb"));
  ComPtr<BlkIo> stripe = layer(
      ComPtr<BlkIo>::FromQuery(
          aio::StripeBlkIo::Create(std::move(members), kStripeUnit, &host.trace)
              .get()),
      "aio.stripe");
  ComPtr<BlkIo> volume = layer(
      ComPtr<BlkIo>::FromQuery(
          aio::ChecksumBlkIo::Create(stripe.get(), &host.trace).get()),
      "aio.checksum");

  secure::PrincipalRegistry principals(&host.trace);
  secure::Principal* tenant = principals.Create("tenant");
  Phase phase(&sim, tracer, [&] { return SnapshotWorld(world); });

  std::vector<FileSlot> files;
  Rng size_rng(seed ^ 0xf11e5);
  auto size_in = [&](size_t lo, size_t hi) {
    return lo + 4096 * size_rng.Below((hi - lo) / 4096 + 1);
  };
  for (int i = 0; i < kHotFiles; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "h%02d", i);
    files.push_back({name, size_in(kHotMin, kHotMax)});
  }
  for (int i = 0; i < kColdFiles; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "c%02d", i);
    files.push_back({name, size_in(kColdMin, kColdMax)});
  }

  uint64_t free_after_mkfs = 0, free_after_unlink = 0;
  fs::FsckReport fsck;
  bool ran = false;

  sim.Spawn("tenant", [&] {
    if (tracer != nullptr) tracer->AdoptFiber(tracer->site("bench.client"));
    OSKIT_ASSERT(Ok(fs::Mkfs(volume.get())));
    fs::MountOptions mo;
    mo.trace = &host.trace;
    ComPtr<FileSystem> ffs;
    OSKIT_ASSERT(Ok(fs::Offs::Mount(volume.get(), mo, ffs.Receive())));
    secure::InstallJournalAdmission(static_cast<fs::Offs*>(ffs.get()),
                                    &principals);
    ComPtr<FileSystem> below =
        tracer != nullptr ? TraceFs(ffs, tracer, "fs") : ffs;
    ComPtr<FileSystem> tfs = secure::MakeSecureFs(below, tenant, &principals);
    if (tracer != nullptr) {
      tfs = TraceFs(tfs, tracer, "secure", tenant);
    }
    FsStat st;
    OSKIT_ASSERT(Ok(tfs->StatFs(&st)));
    free_after_mkfs = st.free_blocks;

    ComPtr<Dir> root;
    OSKIT_ASSERT(Ok(tfs->GetRoot(root.Receive())));
    OSKIT_ASSERT(Ok(root->Mkdir("data", 0755)));
    ComPtr<Dir> data;
    {
      ComPtr<File> f;
      OSKIT_ASSERT(Ok(root->Lookup("data", f.Receive())));
      data = ComPtr<Dir>::FromQuery(f.get());
    }

    std::vector<uint8_t> buf(kColdMax);
    auto write_file = [&](int i, File* f) {
      FileSlot& slot = files[static_cast<size_t>(i)];
      GenFill(seed, Stream(i, slot.version), 0, buf.data(), slot.size);
      size_t n = 0;
      return Ok(f->Write(buf.data(), 0, slot.size, &n)) && n == slot.size;
    };
    auto read_check = [&](int i) {
      FileSlot& slot = files[static_cast<size_t>(i)];
      ComPtr<File> f;
      size_t n = 0;
      return Ok(data->Lookup(slot.name.c_str(), f.Receive())) &&
             Ok(f->Read(buf.data(), 0, slot.size, &n)) && n == slot.size &&
             GenEqual(seed, Stream(i, slot.version), 0, buf.data(), slot.size);
    };
    auto create_file = [&](int i) {
      ComPtr<File> f;
      return Ok(data->Create(files[static_cast<size_t>(i)].name.c_str(), 0644,
                             f.Receive())) &&
             write_file(i, f.get());
    };

    for (int i = 0; i < static_cast<int>(files.size()); ++i) {
      if (!create_file(i)) {
        r.Fail("fs_journal: populate failed");
        return;
      }
    }
    OSKIT_ASSERT(Ok(tfs->Sync()));

    // ---- measured phase ----
    phase.Begin();
    Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
    for (int op = 1; op <= kOps && r.ok; ++op) {
      ++r.attempted;
      SimTime t0 = sim.clock().Now();
      bool good = true;
      uint64_t moved = 0;
      if (op % kSyncEvery == 0) {
        good = Ok(tfs->Sync());
      } else {
        uint64_t pick = rng.Below(90);
        int hot = static_cast<int>(rng.Below(kHotFiles));
        int cold = kHotFiles + static_cast<int>(rng.Below(kColdFiles));
        int either = rng.Below(2) == 0 ? hot : cold;
        if (pick < 50) {
          good = read_check(cold);
          moved = files[static_cast<size_t>(cold)].size;
        } else if (pick < 65) {
          good = read_check(hot);
          moved = files[static_cast<size_t>(hot)].size;
        } else if (pick < 80) {
          FileSlot& slot = files[static_cast<size_t>(either)];
          ++slot.version;
          ComPtr<File> f;
          good = Ok(data->Lookup(slot.name.c_str(), f.Receive())) &&
                 write_file(either, f.get());
          moved = slot.size;
        } else {
          FileSlot& slot = files[static_cast<size_t>(either)];
          ++slot.version;
          good = Ok(data->Unlink(slot.name.c_str())) && create_file(either);
          moved = slot.size;
        }
      }
      if (!good) {
        // The files' expected versions may no longer match the volume, so
        // the ops after this one are not attempted.
        ++r.failed;
        r.Fail("fs_journal: op " + std::to_string(op) +
               " failed or read back wrong bytes");
        break;
      }
      r.lat_ns.push_back(sim.clock().Now() - t0);
      r.bytes += moved;
      ++r.ops;
    }
    phase.End();

    // ---- checks ----
    for (int i = 0; i < static_cast<int>(files.size()) && r.ok; ++i) {
      if (!read_check(i)) {
        r.Fail("fs_journal: final read-back of " + files[i].name);
      }
    }
    for (const FileSlot& slot : files) {
      if (!Ok(data->Unlink(slot.name.c_str()))) {
        r.Fail("fs_journal: unlink-all failed");
      }
    }
    data.Reset();
    if (!Ok(root->Rmdir("data"))) {
      r.Fail("fs_journal: rmdir failed");
    }
    OSKIT_ASSERT(Ok(tfs->Sync()));
    OSKIT_ASSERT(Ok(tfs->StatFs(&st)));
    free_after_unlink = st.free_blocks;
    root.Reset();
    OSKIT_ASSERT(Ok(tfs->Unmount()));
    tfs.Reset();
    below.Reset();
    ffs.Reset();
    fsck = fs::Fsck(volume.get());
    ran = true;
  });

  Simulation::RunResult run = sim.Run(sim.clock().Now() + 3600 * kNsPerSec);
  if (run != Simulation::RunResult::kAllDone || !ran) {
    r.Fail("fs_journal: tenant did not run to completion");
  }
  phase.Report(round_cpu, &r);
  if (free_after_unlink != free_after_mkfs) {
    r.Fail("fs_journal: free blocks after unlink-all " +
           std::to_string(free_after_unlink) + " != after mkfs " +
           std::to_string(free_after_mkfs));
  }
  if (!fsck.consistent) {
    r.Fail("fs_journal: fsck found the volume inconsistent");
  }
  for (size_t i = 0; i < secure::kResourceCount; ++i) {
    if (tenant->charged(static_cast<secure::Resource>(i)) != 0) {
      r.Fail(std::string("fs_journal: quota gauge did not drain: ") +
             secure::ResourceName(static_cast<secure::Resource>(i)));
    }
  }
  if (tracer != nullptr) {
    FillLayers(*tracer, &r);
  }
  return r;
}

}  // namespace perfbench
