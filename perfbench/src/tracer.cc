#include "perfbench/src/tracer.h"

#include <utility>

#include "perfbench/src/common.h"
#include "src/com/aio.h"
#include "src/com/bufio.h"

using namespace oskit;

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

Site* Tracer::site(const std::string& name) {
  auto& slot = sites_[name];
  if (!slot) {
    slot = std::make_unique<Site>();
  }
  return slot.get();
}

Site Tracer::Sum(const std::string& prefix, const std::string& suffix) const {
  Site total;
  for (const auto& [name, s] : sites_) {
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    total.calls += s->calls;
    total.parked += s->parked;
    total.attributed += s->attributed;
    total.host_ns += s->host_ns;
    total.units += s->units;
    total.attributed_units += s->attributed_units;
    total.sim_ns += s->sim_ns;
    total.charges += s->charges;
  }
  return total;
}

void Tracer::Arm() {
  armed_ = true;
  // A gap that straddles the arm point is not measured-phase work.
  for (auto& [fiber, st] : fibers_) {
    st.have_exit = false;
  }
}

void Tracer::Disarm() { armed_ = false; }

Tracer::FiberState& Tracer::state() {
  return fibers_[sim_->scheduler().current()];
}

void Tracer::AdoptFiber(Site* self_site) {
  FiberState& st = state();
  // Fiber objects are recycled; adoption starts the state afresh.
  st = FiberState{};
  st.self = self_site;
}

uint64_t Tracer::AttributedNs() const {
  uint64_t total = 0;
  for (const auto& [name, s] : sites_) {
    total += s->host_ns;
  }
  return total;
}

Span::Span(Tracer* tracer, Site* site, uint64_t units) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  site_ = site;
  units_ = units;
  fiber_ = &tracer_->state();
  parent_ = fiber_->top;
  fiber_->top = this;
  counted_ = tracer_->armed_;
  seq0_ = tracer_->seq_++;
  events0_ = tracer_->sim_->clock().events_run();
  sim0_ = tracer_->sim_->clock().Now();
  t0_ = WallNs();
  if (parent_ == nullptr && fiber_->self != nullptr && fiber_->have_exit &&
      counted_) {
    fiber_->self->host_ns += t0_ - fiber_->last_exit;
    fiber_->self->attributed += 1;
  }
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  uint64_t t1 = WallNs();
  uint64_t dur = t1 - t0_;
  uint64_t events = tracer_->sim_->clock().events_run() - events0_;
  uint64_t seq = tracer_->seq_ - seq0_;  // this span, nested and foreign ones
  // Parked outside its nested spans: engine events or foreign spans that no
  // nested span accounts for.  A park inside a nested span is that span's.
  bool self_parked = events > child_events_ || seq - 1 > child_seq_;
  fiber_->top = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += dur;
    parent_->child_events_ += events;
    parent_->child_seq_ += seq;
  } else {
    fiber_->last_exit = t1;
    fiber_->have_exit = true;
  }
  if (!counted_) {
    return;
  }
  site_->calls += 1;
  site_->units += units_;
  site_->charges += charges_;
  site_->sim_ns += tracer_->sim_->clock().Now() - sim0_;
  if (events > 0 || self_parked) {
    site_->parked += 1;
  }
  if (self_parked) {
    return;
  }
  site_->attributed += 1;
  site_->attributed_units += units_;
  site_->host_ns += dur > child_ns_ ? dur - child_ns_ : 0;
}

void TracedSleep(Tracer* tracer, Simulation* sim, uint64_t ns) {
  Span span(tracer, tracer != nullptr ? tracer->site("bench.wait") : nullptr);
  sim->SleepFor(ns);
}

namespace {

// ---------------------------------------------------------------------------
// Network: factory, sockets, selector
// ---------------------------------------------------------------------------

class TSelector;

struct NetSites {
  Site* ctl;
  Site* send;
  Site* recv;
  Site* accept;
  Site* select;
  explicit NetSites(Tracer* t)
      : ctl(t->site("net.ctl")),
        send(t->site("net.send")),
        recv(t->site("net.recv")),
        accept(t->site("net.accept")),
        select(t->site("net.select")) {}
};

class TSocket final : public Socket,
                      public SocketExt,
                      public SocketZeroCopy,
                      public RefCounted<TSocket> {
 public:
  TSocket(ComPtr<Socket> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer), sites_(tracer) {
    ext_ = ComPtr<SocketExt>::FromQuery(inner_.get());
    zc_ = ComPtr<SocketZeroCopy>::FromQuery(inner_.get());
  }

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == Socket::kIid) {
      AddRef();
      *out = static_cast<Socket*>(this);
      return Error::kOk;
    }
    if (iid == SocketExt::kIid && ext_) {
      AddRef();
      *out = static_cast<SocketExt*>(this);
      return Error::kOk;
    }
    if (iid == SocketZeroCopy::kIid && zc_) {
      AddRef();
      *out = static_cast<SocketZeroCopy*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error Bind(const SockAddr& addr) override {
    Span s(tracer_, sites_.ctl);
    return inner_->Bind(addr);
  }
  Error Connect(const SockAddr& addr) override {
    Span s(tracer_, sites_.ctl);
    return inner_->Connect(addr);
  }
  Error Listen(int backlog) override {
    Span s(tracer_, sites_.ctl);
    return inner_->Listen(backlog);
  }
  Error Accept(SockAddr* out_peer, Socket** out_socket) override {
    Span s(tracer_, sites_.accept);
    ComPtr<Socket> child;
    Error err = inner_->Accept(out_peer, child.Receive());
    *out_socket = nullptr;
    if (Ok(err)) {
      s.add_units(1);
      *out_socket = new TSocket(std::move(child), tracer_);
    }
    return err;
  }
  Error Send(const void* buf, size_t amount, size_t* out_actual) override {
    Span s(tracer_, sites_.send);
    *out_actual = 0;
    Error err = inner_->Send(buf, amount, out_actual);
    s.add_units(*out_actual);
    return err;
  }
  Error Recv(void* buf, size_t amount, size_t* out_actual) override {
    Span s(tracer_, sites_.recv);
    *out_actual = 0;
    Error err = inner_->Recv(buf, amount, out_actual);
    if (Ok(err)) {
      s.add_units(*out_actual);
    }
    return err;
  }
  Error SendTo(const void* buf, size_t amount, const SockAddr& to,
               size_t* out_actual) override {
    Span s(tracer_, sites_.send);
    *out_actual = 0;
    Error err = inner_->SendTo(buf, amount, to, out_actual);
    s.add_units(*out_actual);
    return err;
  }
  Error RecvFrom(void* buf, size_t amount, SockAddr* out_from,
                 size_t* out_actual) override {
    Span s(tracer_, sites_.recv);
    *out_actual = 0;
    Error err = inner_->RecvFrom(buf, amount, out_from, out_actual);
    if (Ok(err)) {
      s.add_units(*out_actual);
    }
    return err;
  }
  Error Shutdown(SockShutdown how) override {
    Span s(tracer_, sites_.ctl);
    return inner_->Shutdown(how);
  }
  Error GetSockName(SockAddr* out_addr) override {
    return inner_->GetSockName(out_addr);
  }
  Error GetPeerName(SockAddr* out_addr) override {
    return inner_->GetPeerName(out_addr);
  }

  // SocketExt
  Error SetNonBlocking(bool on) override {
    Span s(tracer_, sites_.ctl);
    return ext_->SetNonBlocking(on);
  }
  Error AcceptBatch(SockAddr* out_peers, Socket** out_sockets, size_t capacity,
                    size_t* out_count) override {
    Span s(tracer_, sites_.accept);
    *out_count = 0;
    Error err = ext_->AcceptBatch(out_peers, out_sockets, capacity, out_count);
    if (Ok(err)) {
      s.add_units(*out_count);
      for (size_t i = 0; i < *out_count; ++i) {
        out_sockets[i] = new TSocket(ComPtr<Socket>(out_sockets[i]), tracer_);
      }
    }
    return err;
  }

  // SocketZeroCopy
  Error SendBufIo(BufIoVec* src, off_t64 offset, size_t amount,
                  size_t* out_actual) override {
    Span s(tracer_, sites_.send);
    *out_actual = 0;
    Error err = zc_->SendBufIo(src, offset, amount, out_actual);
    s.add_units(*out_actual);
    return err;
  }

  Socket* inner() const { return inner_.get(); }
  void set_selector(TSelector* sel) { selector_ = sel; }

 private:
  friend class RefCounted<TSocket>;
  ~TSocket();

  ComPtr<Socket> inner_;
  ComPtr<SocketExt> ext_;
  ComPtr<SocketZeroCopy> zc_;
  Tracer* tracer_;
  NetSites sites_;
  TSelector* selector_ = nullptr;  // set while registered with one
};

class TSelector final : public NetSelector, public RefCounted<TSelector> {
 public:
  TSelector(ComPtr<NetSelector> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer), sites_(tracer) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == NetSelector::kIid) {
      AddRef();
      *out = static_cast<NetSelector*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error Add(Socket* socket, uint32_t interest, bool edge,
            void* token) override {
    Span s(tracer_, sites_.ctl);
    TSocket* wrapper = dynamic_cast<TSocket*>(socket);
    Socket* target = wrapper != nullptr ? wrapper->inner() : socket;
    Error err = inner_->Add(target, interest, edge, token);
    if (Ok(err) && wrapper != nullptr) {
      wrappers_[target] = wrapper;
      wrapper->set_selector(this);
    }
    return err;
  }
  Error Modify(Socket* socket, uint32_t interest, bool edge) override {
    Span s(tracer_, sites_.ctl);
    return inner_->Modify(Unwrap(socket), interest, edge);
  }
  Error Remove(Socket* socket) override {
    Span s(tracer_, sites_.ctl);
    Socket* target = Unwrap(socket);
    Forget(target);
    return inner_->Remove(target);
  }
  Error Wait(NetReadyEvent* out_events, size_t capacity, bool block,
             size_t* out_count) override {
    Span s(tracer_, sites_.select);
    Error err = inner_->Wait(out_events, capacity, block, out_count);
    if (!Ok(err)) {
      return err;
    }
    s.add_units(*out_count);
    for (size_t i = 0; i < *out_count; ++i) {
      auto it = wrappers_.find(out_events[i].socket);
      if (it != wrappers_.end()) {
        out_events[i].socket = it->second;
      }
    }
    return err;
  }

  void Forget(Socket* inner_socket) {
    auto it = wrappers_.find(inner_socket);
    if (it != wrappers_.end()) {
      it->second->set_selector(nullptr);
      wrappers_.erase(it);
    }
  }

 private:
  friend class RefCounted<TSelector>;
  ~TSelector() {
    for (auto& [inner_socket, wrapper] : wrappers_) {
      wrapper->set_selector(nullptr);
    }
  }

  static Socket* Unwrap(Socket* socket) {
    TSocket* wrapper = dynamic_cast<TSocket*>(socket);
    return wrapper != nullptr ? wrapper->inner() : socket;
  }

  ComPtr<NetSelector> inner_;
  Tracer* tracer_;
  NetSites sites_;
  std::unordered_map<Socket*, TSocket*> wrappers_;
};

TSocket::~TSocket() {
  if (selector_ != nullptr) {
    selector_->Forget(inner_.get());
  }
}

class TSocketFactory final : public SocketFactory,
                             public RefCounted<TSocketFactory> {
 public:
  TSocketFactory(ComPtr<SocketFactory> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer),
        site_(tracer->site("net.ctl")) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == SocketFactory::kIid) {
      AddRef();
      *out = static_cast<SocketFactory*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error Create(SockDomain domain, SockType type, Socket** out_socket) override {
    Span s(tracer_, site_);
    ComPtr<Socket> inner_socket;
    Error err = inner_->Create(domain, type, inner_socket.Receive());
    *out_socket = Ok(err) ? new TSocket(std::move(inner_socket), tracer_)
                          : nullptr;
    return err;
  }

 private:
  friend class RefCounted<TSocketFactory>;
  ~TSocketFactory() = default;

  ComPtr<SocketFactory> inner_;
  Tracer* tracer_;
  Site* site_;
};

// ---------------------------------------------------------------------------
// Filesystem: FileSystem, the Dir/File tree, sendfile views
// ---------------------------------------------------------------------------

struct FsSites {
  Site* read;
  Site* write;
  Site* create;
  Site* unlink;
  Site* sync;
  Site* lookup;
  Site* meta;
  Site* unpin;
  FsSites(Tracer* t, const std::string& layer)
      : read(t->site(layer + ".read")),
        write(t->site(layer + ".write")),
        create(t->site(layer + ".create")),
        unlink(t->site(layer + ".unlink")),
        sync(t->site(layer + ".sync")),
        lookup(t->site(layer + ".lookup")),
        meta(t->site(layer + ".meta")),
        unpin(t->site(layer + ".unpin")) {}
};

// Counts the principal's quota gauges that rose across one call.
class ChargeProbe {
 public:
  ChargeProbe(Span* span, secure::Principal* p) : span_(span), p_(p) {
    if (p_ == nullptr) {
      return;
    }
    for (size_t r = 0; r < secure::kResourceCount; ++r) {
      before_[r] = p_->charged(static_cast<secure::Resource>(r));
    }
  }
  ~ChargeProbe() {
    if (p_ == nullptr) {
      return;
    }
    uint64_t rises = 0;
    for (size_t r = 0; r < secure::kResourceCount; ++r) {
      rises += p_->charged(static_cast<secure::Resource>(r)) > before_[r];
    }
    span_->add_charges(rises);
  }

 private:
  Span* span_;
  secure::Principal* p_;
  uint64_t before_[secure::kResourceCount] = {};
};

struct FsContext {
  Tracer* tracer;
  FsSites sites;
  secure::Principal* principal;
};

// One layer's call: a span plus the quota probe.
#define FS_CALL(site_field)                                   \
  Span span(ctx_->tracer, ctx_->sites.site_field);            \
  ChargeProbe probe(&span, ctx_->principal)

class TBufIoVec final : public BufIoVec, public RefCounted<TBufIoVec> {
 public:
  TBufIoVec(ComPtr<BufIoVec> inner, std::shared_ptr<FsContext> ctx)
      : inner_(std::move(inner)), ctx_(std::move(ctx)) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == BlkIo::kIid || iid == BufIo::kIid ||
        iid == BufIoVec::kIid) {
      AddRef();
      *out = static_cast<BufIoVec*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount,
             size_t* out_actual) override {
    FS_CALL(read);
    *out_actual = 0;
    Error err = inner_->Read(buf, offset, amount, out_actual);
    span.add_units(*out_actual);
    return err;
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    FS_CALL(write);
    *out_actual = 0;
    Error err = inner_->Write(buf, offset, amount, out_actual);
    span.add_units(*out_actual);
    return err;
  }
  Error GetSize(off_t64* out_size) override {
    return inner_->GetSize(out_size);
  }
  Error SetSize(off_t64 new_size) override {
    FS_CALL(meta);
    return inner_->SetSize(new_size);
  }
  Error Map(void** out_addr, off_t64 offset, size_t amount) override {
    FS_CALL(read);
    return inner_->Map(out_addr, offset, amount);
  }
  Error Unmap(void* addr, off_t64 offset, size_t amount) override {
    FS_CALL(unpin);
    return inner_->Unmap(addr, offset, amount);
  }
  Error Wire() override { return inner_->Wire(); }
  Error Unwire() override { return inner_->Unwire(); }
  Error Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset,
                size_t amount, size_t* out_count) override {
    FS_CALL(read);
    Error err = inner_->Vectors(out_segs, cap, offset, amount, out_count);
    if (Ok(err)) {
      span.add_units(amount);
    }
    return err;
  }
  Error UnmapVectors(off_t64 offset, size_t amount) override {
    FS_CALL(unpin);
    return inner_->UnmapVectors(offset, amount);
  }

 private:
  friend class RefCounted<TBufIoVec>;
  ~TBufIoVec() = default;

  ComPtr<BufIoVec> inner_;
  std::shared_ptr<FsContext> ctx_;
};

// Files and directories share one interposer: Dir methods are reachable
// only through Query(Dir), which it grants iff the inner object is a Dir.
class TNode final : public Dir, public RefCounted<TNode> {
 public:
  TNode(ComPtr<File> inner, std::shared_ptr<FsContext> ctx)
      : file_(std::move(inner)), ctx_(std::move(ctx)) {
    dir_ = ComPtr<Dir>::FromQuery(file_.get());
  }

  static File* Wrap(File* inner, const std::shared_ptr<FsContext>& ctx) {
    return inner == nullptr ? nullptr
                            : static_cast<File*>(static_cast<Dir*>(
                                  new TNode(ComPtr<File>(inner), ctx)));
  }

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == File::kIid) {
      AddRef();
      *out = static_cast<File*>(static_cast<Dir*>(this));
      return Error::kOk;
    }
    if (iid == Dir::kIid && dir_) {
      AddRef();
      *out = static_cast<Dir*>(this);
      return Error::kOk;
    }
    if (iid == BufIo::kIid || iid == BufIoVec::kIid) {
      ComPtr<BufIoVec> vec = ComPtr<BufIoVec>::FromQuery(file_.get());
      if (vec) {
        *out = static_cast<BufIoVec*>(new TBufIoVec(std::move(vec), ctx_));
        return Error::kOk;
      }
    }
    return file_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  // File
  Error Read(void* buf, uint64_t offset, size_t amount,
             size_t* out_actual) override {
    FS_CALL(read);
    Error err = file_->Read(buf, offset, amount, out_actual);
    span.add_units(*out_actual);
    return err;
  }
  Error Write(const void* buf, uint64_t offset, size_t amount,
              size_t* out_actual) override {
    FS_CALL(write);
    Error err = file_->Write(buf, offset, amount, out_actual);
    span.add_units(*out_actual);
    return err;
  }
  Error GetStat(FileStat* out_stat) override {
    FS_CALL(meta);
    return file_->GetStat(out_stat);
  }
  Error SetSize(uint64_t new_size) override {
    FS_CALL(meta);
    return file_->SetSize(new_size);
  }
  Error Sync() override {
    FS_CALL(sync);
    return file_->Sync();
  }

  // Dir
  Error Lookup(const char* name, File** out_file) override {
    FS_CALL(lookup);
    Error err = dir_->Lookup(name, out_file);
    *out_file = Ok(err) ? Wrap(*out_file, ctx_) : nullptr;
    return err;
  }
  Error Create(const char* name, uint32_t mode, File** out_file) override {
    FS_CALL(create);
    Error err = dir_->Create(name, mode, out_file);
    *out_file = Ok(err) ? Wrap(*out_file, ctx_) : nullptr;
    return err;
  }
  Error Mkdir(const char* name, uint32_t mode) override {
    FS_CALL(create);
    return dir_->Mkdir(name, mode);
  }
  Error Unlink(const char* name) override {
    FS_CALL(unlink);
    return dir_->Unlink(name);
  }
  Error Rmdir(const char* name) override {
    FS_CALL(unlink);
    return dir_->Rmdir(name);
  }
  Error Rename(const char* old_name, Dir* new_dir,
               const char* new_name) override {
    FS_CALL(meta);
    TNode* wrapped = dynamic_cast<TNode*>(new_dir);
    Dir* target = wrapped != nullptr ? wrapped->dir_.get() : new_dir;
    return dir_->Rename(old_name, target, new_name);
  }
  Error ReadDir(uint64_t* inout_offset, DirEntry* entries, size_t capacity,
                size_t* out_count) override {
    FS_CALL(meta);
    return dir_->ReadDir(inout_offset, entries, capacity, out_count);
  }

 private:
  friend class RefCounted<TNode>;
  ~TNode() = default;

  ComPtr<File> file_;
  ComPtr<Dir> dir_;  // null for regular files
  std::shared_ptr<FsContext> ctx_;
};

class TFileSystem final : public FileSystem, public RefCounted<TFileSystem> {
 public:
  TFileSystem(ComPtr<FileSystem> inner, std::shared_ptr<FsContext> ctx)
      : inner_(std::move(inner)), ctx_(std::move(ctx)) {}

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == FileSystem::kIid) {
      AddRef();
      *out = static_cast<FileSystem*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  Error GetRoot(Dir** out_root) override {
    FS_CALL(lookup);
    Error err = inner_->GetRoot(out_root);
    if (Ok(err)) {
      *out_root = new TNode(ComPtr<File>(static_cast<File*>(*out_root)), ctx_);
    }
    return err;
  }
  Error StatFs(FsStat* out_stat) override {
    FS_CALL(meta);
    return inner_->StatFs(out_stat);
  }
  Error Sync() override {
    FS_CALL(sync);
    return inner_->Sync();
  }
  Error Unmount() override {
    FS_CALL(meta);
    return inner_->Unmount();
  }

 private:
  friend class RefCounted<TFileSystem>;
  ~TFileSystem() = default;

  ComPtr<FileSystem> inner_;
  std::shared_ptr<FsContext> ctx_;
};

#undef FS_CALL

// ---------------------------------------------------------------------------
// Block layers
// ---------------------------------------------------------------------------

class TBlkIo final : public BlkIo,
                     public BlkIoBarrier,
                     public BlkIoRing,
                     public RefCounted<TBlkIo> {
 public:
  TBlkIo(ComPtr<BlkIo> inner, Tracer* tracer, const std::string& layer)
      : inner_(std::move(inner)),
        tracer_(tracer),
        read_(tracer->site(layer + ".read")),
        write_(tracer->site(layer + ".write")),
        flush_(tracer->site(layer + ".flush")),
        submit_(tracer->site(layer + ".submit")),
        reap_(tracer->site(layer + ".reap")) {
    barrier_ = ComPtr<BlkIoBarrier>::FromQuery(inner_.get());
    ring_ = ComPtr<BlkIoRing>::FromQuery(inner_.get());
  }

  Error Query(const Guid& iid, void** out) override {
    if (iid == IUnknown::kIid || iid == BlkIo::kIid) {
      AddRef();
      *out = static_cast<BlkIo*>(this);
      return Error::kOk;
    }
    if (iid == BlkIoBarrier::kIid && barrier_) {
      AddRef();
      *out = static_cast<BlkIoBarrier*>(this);
      return Error::kOk;
    }
    if (iid == BlkIoRing::kIid && ring_) {
      AddRef();
      *out = static_cast<BlkIoRing*>(this);
      return Error::kOk;
    }
    return inner_->Query(iid, out);
  }
  OSKIT_REFCOUNTED_BOILERPLATE()

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount,
             size_t* out_actual) override {
    Span s(tracer_, read_);
    *out_actual = 0;
    Error err = inner_->Read(buf, offset, amount, out_actual);
    s.add_units(*out_actual);
    return err;
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    Span s(tracer_, write_);
    *out_actual = 0;
    Error err = inner_->Write(buf, offset, amount, out_actual);
    s.add_units(*out_actual);
    return err;
  }
  Error GetSize(off_t64* out_size) override { return inner_->GetSize(out_size); }
  Error SetSize(off_t64 new_size) override { return inner_->SetSize(new_size); }

  Error Flush() override {
    Span s(tracer_, flush_);
    return barrier_->Flush();
  }

  Error Submit(const AioSqe* sqes, size_t count,
               size_t* out_accepted) override {
    Span s(tracer_, submit_);
    *out_accepted = 0;
    Error err = ring_->Submit(sqes, count, out_accepted);
    for (size_t i = 0; i < *out_accepted; ++i) {
      if (sqes[i].op == AioOp::kWrite) {
        s.add_units(sqes[i].len);  // units: bytes written through the ring
      }
    }
    return err;
  }
  Error Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) override {
    Span s(tracer_, reap_);
    return ring_->Reap(out_cqes, cap, out_count);
  }
  size_t Occupancy() override { return ring_->Occupancy(); }

 private:
  friend class RefCounted<TBlkIo>;
  ~TBlkIo() = default;

  ComPtr<BlkIo> inner_;
  ComPtr<BlkIoBarrier> barrier_;
  ComPtr<BlkIoRing> ring_;
  Tracer* tracer_;
  Site* read_;
  Site* write_;
  Site* flush_;
  Site* submit_;
  Site* reap_;
};

}  // namespace

ComPtr<SocketFactory> TraceSocketFactory(ComPtr<SocketFactory> inner,
                                         Tracer* tracer) {
  return ComPtr<SocketFactory>(new TSocketFactory(std::move(inner), tracer));
}

ComPtr<NetSelector> TraceSelector(ComPtr<NetSelector> inner, Tracer* tracer) {
  return ComPtr<NetSelector>(new TSelector(std::move(inner), tracer));
}

ComPtr<FileSystem> TraceFs(ComPtr<FileSystem> inner, Tracer* tracer,
                           const std::string& layer,
                           secure::Principal* principal) {
  auto ctx = std::make_shared<FsContext>(
      FsContext{tracer, FsSites(tracer, layer), principal});
  return ComPtr<FileSystem>(new TFileSystem(std::move(inner), std::move(ctx)));
}

ComPtr<BlkIo> TraceBlkIo(ComPtr<BlkIo> inner, Tracer* tracer,
                         const std::string& layer) {
  return ComPtr<BlkIo>(
      static_cast<BlkIo*>(new TBlkIo(std::move(inner), tracer, layer)));
}

}  // namespace perfbench
