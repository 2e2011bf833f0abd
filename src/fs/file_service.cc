#include "src/fs/file_service.h"

#include <utility>

#include "src/base/logging.h"
#include "src/base/page_ref.h"
#include "src/trace/trace.h"

namespace accent {
namespace {

// CPU cost of serving an open (directory lookup, map preparation).
constexpr SimDuration kOpenService = Ms(12);
// CPU cost of applying one written-back page.
constexpr SimDuration kWriteBackPerPage = Ms(1);

}  // namespace

FileServer::FileServer(HostEnv* env)
    : env_(env),
      backer_(env->id, env->sim, env->costs, env->fabric, env->segments,
              CpuWork::kProcess, "file-backer") {
  ACCENT_EXPECTS(env != nullptr && env->complete());
}

void FileServer::Start() {
  ACCENT_EXPECTS(!port_.valid()) << " file server started twice";
  ACCENT_CHECK(!env_->calibration.diskless)
      << " host " << env_->id << " is diskless and cannot anchor file backing";
  port_ = env_->fabric->AllocatePort(env_->id, this, "file-server");
  backer_.Start();
}

Segment* FileServer::CreateFile(const std::string& name, ByteCount size, std::uint64_t seed) {
  ACCENT_EXPECTS(size > 0 && size % kPageSize == 0);
  ACCENT_EXPECTS(files_.count(name) == 0) << " file exists: " << name;
  Segment* segment = env_->segments->CreateReal(size, "file:" + name);
  if (seed != 0) {
    for (PageIndex p = 0; p < segment->page_count(); ++p) {
      segment->StorePage(p, PageRef::Pattern(seed + p));
    }
  }
  files_[name] = segment;
  return segment;
}

Segment* FileServer::Find(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : it->second;
}

void FileServer::HandleMessage(Message msg) {
  if (msg.op != MsgOp::kUser) {
    ACCENT_LOG(kDebug) << "file server ignoring " << MsgOpName(msg.op);
    return;
  }
  // Dispatch on the FsOp selector.
  if (const auto* open = std::any_cast<FsOpenRequest>(&msg.body)) {
    (void)open;
    ServeOpen(msg);
    return;
  }
  if (std::any_cast<FsWriteBack>(&msg.body) != nullptr) {
    ServeWriteBack(std::move(msg));
    return;
  }
  if (std::any_cast<FsCheckpointPut>(&msg.body) != nullptr) {
    ServeCheckpointPut(std::move(msg));
    return;
  }
  if (std::any_cast<FsCheckpointGet>(&msg.body) != nullptr) {
    ServeCheckpointGet(msg);
    return;
  }
  ACCENT_LOG(kDebug) << "file server: unrecognised user message";
}

void FileServer::ServeOpen(const Message& msg) {
  const auto& request = msg.BodyAs<FsOpenRequest>();
  ++opens_served_;

  FsOpenReply reply;
  reply.request_id = request.request_id;
  Segment* file = Find(request.name);
  if (file != nullptr) {
    reply.found = true;
    reply.size = file->size();
    reply.local_segment = file->id();
    // Back the file lazily; every open adds a reference so one client's
    // death never retires a file other clients still map.
    reply.iou = backer_.Back(file);
    backed_files_[file->id().value] = request.name;
  }

  Message response;
  response.dest = request.reply_port;
  response.op = MsgOp::kUser;
  response.inline_bytes = 64;
  response.body = reply;
  env_->cpu->Submit(CpuWork::kProcess, kOpenService,
                    [this, response = std::move(response)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(response));
                      if (!sent.ok()) {
                        ACCENT_LOG(kDebug) << "open reply dropped: " << sent.error().message;
                      }
                    });
}

void FileServer::ServeWriteBack(Message msg) {
  const auto& request = msg.BodyAs<FsWriteBack>();
  Segment* file = Find(request.name);

  // A duplicated request (lossy wire re-delivery, or a retransmission whose
  // first copy got through after all) must not apply the pages a second
  // time: replay the ack that answered the original instead.
  const auto replay_key = std::make_pair(request.reply_port.value, request.request_id);
  if (auto remembered = writeback_acks_.find(replay_key); remembered != writeback_acks_.end()) {
    ++duplicate_writebacks_;
    Message response;
    response.dest = request.reply_port;
    response.op = MsgOp::kUser;
    response.inline_bytes = 32;
    response.body = remembered->second;
    env_->cpu->Submit(CpuWork::kProcess, kOpenService,
                      [this, response = std::move(response)]() mutable {
                        Result<void> sent = env_->fabric->Send(env_->id, std::move(response));
                        if (!sent.ok()) {
                          ACCENT_LOG(kDebug) << "write-back ack dropped: " << sent.error().message;
                        }
                      });
    return;
  }

  FsWriteBackAck ack;
  ack.request_id = request.request_id;
  SimDuration apply_cost = SimDuration::zero();
  if (file != nullptr && !msg.regions.empty()) {
    for (const MemoryRegion& region : msg.regions) {
      if (region.mem_class != MemClass::kReal) {
        continue;
      }
      const PageIndex first = PageOf(region.base);
      for (PageIndex i = 0; i < region.page_count(); ++i) {
        if (first + i < file->page_count()) {
          file->StorePage(first + i, region.pages[i]);
          ++ack.pages_written;
        }
      }
    }
    ack.ok = true;
    pages_written_back_ += ack.pages_written;
    apply_cost = kWriteBackPerPage * static_cast<std::int64_t>(ack.pages_written);
    // The new contents also go to the local disk.
    if (ack.pages_written > 0) {
      env_->disk->Write(ack.pages_written, nullptr);
    }
  }

  writeback_acks_[replay_key] = ack;

  Message response;
  response.dest = request.reply_port;
  response.op = MsgOp::kUser;
  response.inline_bytes = 32;
  response.body = ack;
  env_->cpu->Submit(CpuWork::kProcess, kOpenService + apply_cost,
                    [this, response = std::move(response)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(response));
                      if (!sent.ok()) {
                        ACCENT_LOG(kDebug) << "write-back ack dropped: " << sent.error().message;
                      }
                    });
}

std::uint64_t FileServer::checkpoint_versions(ProcId proc) const {
  auto it = checkpoints_.find(proc.value);
  return it == checkpoints_.end() ? 0 : it->second.size();
}

void FileServer::ServeCheckpointPut(Message msg) {
  const auto& put = msg.BodyAs<FsCheckpointPut>();
  ACCENT_CHECK(msg.has_amap) << " checkpoint put without an AMap rider";

  std::vector<CheckpointVersion>& versions = checkpoints_[put.core.proc.value];
  CheckpointVersion v;
  v.version = versions.size() + 1;
  v.core = put.core;
  v.rights = put.rights;
  v.amap = msg.amap;
  v.materialize = put.materialize;
  v.materialize_all = put.materialize_all;

  // RealMem regions become the sparse, VA-indexed store object; inherited
  // IOU regions are retained as descriptors only — that debt stays with its
  // original backers and is re-issued verbatim on restore.
  std::vector<std::pair<PageIndex, PageRef>> pages;
  for (MemoryRegion& region : msg.regions) {
    if (region.mem_class == MemClass::kImag) {
      v.inherited.push_back(region);
      continue;
    }
    if (region.mem_class != MemClass::kReal) {
      continue;
    }
    const PageIndex first = PageOf(region.base);
    for (PageIndex i = 0; i < region.page_count(); ++i) {
      v.stored_pages.push_back(first + i);
      pages.emplace_back(first + i, std::move(region.pages[i]));
    }
  }
  const auto stored = static_cast<PageIndex>(pages.size());
  v.image = backer_.BackSparsePages(
      kAddressSpaceLimit, std::move(pages),
      "ckpt:" + put.core.name + ":v" + std::to_string(v.version));
  v.image_segment = env_->segments->Find(v.image.segment);
  ACCENT_CHECK(v.image_segment != nullptr);

  ++checkpoints_stored_;
  checkpoint_pages_stored_ += stored;
  if (stored > 0) {
    env_->disk->Write(stored, nullptr);  // the image is durable, not just cached
  }
  if (Tracer* tracer = env_->sim->tracer()) {
    tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:stored", env_->sim->Now(),
                    {{"proc", Json(put.core.proc.value)},
                     {"version", Json(v.version)},
                     {"pages", Json(static_cast<std::uint64_t>(stored))}});
  }

  FsCheckpointPutAck ack;
  ack.request_id = put.request_id;
  ack.proc = put.core.proc;
  ack.version = v.version;
  ack.pages_stored = stored;
  versions.push_back(std::move(v));

  Message response;
  response.dest = put.reply_port;
  response.op = MsgOp::kUser;
  response.traffic = TrafficKind::kControl;
  response.inline_bytes = 32;
  response.body = ack;
  const SimDuration apply_cost = kWriteBackPerPage * static_cast<std::int64_t>(stored);
  env_->cpu->Submit(CpuWork::kProcess, kOpenService + apply_cost,
                    [this, response = std::move(response)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(response));
                      if (!sent.ok()) {
                        ACCENT_LOG(kDebug) << "checkpoint ack dropped: " << sent.error().message;
                      }
                    });
}

void FileServer::ServeCheckpointGet(const Message& msg) {
  const auto& get = msg.BodyAs<FsCheckpointGet>();

  FsCheckpointGetReply reply;
  reply.request_id = get.request_id;
  reply.proc = get.proc;

  Message response;
  response.dest = get.reply_port;
  response.op = MsgOp::kUser;
  response.no_ious = true;  // materialized pages must arrive physically
  response.traffic = TrafficKind::kBulkData;

  PageIndex materialized = 0;
  auto it = checkpoints_.find(get.proc.value);
  if (it != checkpoints_.end() && !it->second.empty()) {
    const CheckpointVersion& v = it->second.back();
    reply.found = true;
    reply.version = v.version;
    reply.core = v.core;
    reply.rights = v.rights;
    response.amap = v.amap;
    response.has_amap = true;

    // Re-install set first (contiguous runs of stored pages), then the
    // whole-space store IOU, then inherited debt — the two smaller kinds of
    // region win InsertProcess's covering rule over the full span.
    const std::vector<PageIndex>& installs =
        v.materialize_all ? v.stored_pages : v.materialize;
    std::size_t i = 0;
    while (i < installs.size()) {
      std::size_t j = i + 1;
      while (j < installs.size() && installs[j] == installs[j - 1] + 1) {
        ++j;
      }
      std::vector<PageRef> data;
      data.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        data.push_back(v.image_segment->ReadPage(installs[k]));
      }
      response.regions.push_back(MemoryRegion::Data(PageBase(installs[i]), std::move(data)));
      i = j;
    }
    materialized = static_cast<PageIndex>(installs.size());
    response.regions.push_back(MemoryRegion::Iou(0, kAddressSpaceLimit, v.image));
    for (const MemoryRegion& inherited : v.inherited) {
      response.regions.push_back(inherited);
    }

    // The restored space will map the image through one stand-in segment
    // and send one death notice when it dies; balance it now.
    backer_.AddRef(v.image.segment);
    ++restores_served_;
    if (materialized > 0) {
      env_->disk->Read(materialized, nullptr);
    }
    if (Tracer* tracer = env_->sim->tracer()) {
      tracer->Instant(env_->id, TraceLane::kMigration, "ckpt:restore-served",
                      env_->sim->Now(),
                      {{"proc", Json(get.proc.value)},
                       {"version", Json(v.version)},
                       {"materialized", Json(static_cast<std::uint64_t>(materialized))}});
    }
  } else {
    ACCENT_LOG(kInfo) << "restore request for never-checkpointed process " << get.proc;
  }

  response.inline_bytes =
      64 + static_cast<ByteCount>(reply.rights.size()) * kPortRightBytes;
  response.body = std::move(reply);
  const SimDuration serve_cost =
      kOpenService + kWriteBackPerPage * static_cast<std::int64_t>(materialized);
  env_->cpu->Submit(CpuWork::kProcess, serve_cost,
                    [this, response = std::move(response)]() mutable {
                      Result<void> sent = env_->fabric->Send(env_->id, std::move(response));
                      if (!sent.ok()) {
                        ACCENT_LOG(kDebug) << "restore reply dropped: " << sent.error().message;
                      }
                    });
}

FileClient::FileClient(HostEnv* env, PortId server_port)
    : env_(env), server_port_(server_port) {
  ACCENT_EXPECTS(env != nullptr && env->complete());
}

void FileClient::Start() {
  ACCENT_EXPECTS(!reply_port_.valid()) << " file client started twice";
  reply_port_ = env_->fabric->AllocatePort(env_->id, this, "file-client");
}

void FileClient::OpenAndMap(const std::string& name, AddressSpace* space, Addr base,
                            OpenDone done) {
  ACCENT_EXPECTS(space != nullptr && done != nullptr);
  ACCENT_EXPECTS(reply_port_.valid()) << " client not started";
  const std::uint64_t id = next_request_++;
  pending_opens_[id] = PendingOpen{space, base, std::move(done)};

  FsOpenRequest request;
  request.request_id = id;
  request.name = name;
  request.reply_port = reply_port_;

  Message msg;
  msg.dest = server_port_;
  msg.op = MsgOp::kUser;
  msg.inline_bytes = 64 + name.size();
  msg.body = request;
  Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
  if (!sent.ok()) {
    PendingOpen pending = std::move(pending_opens_.at(id));
    pending_opens_.erase(id);
    pending.done(OpenResult{});
  }
}

void FileClient::WriteBack(const std::string& name, AddressSpace* space, Addr base,
                           const std::vector<PageIndex>& file_pages, FlushDone done) {
  ACCENT_EXPECTS(space != nullptr && done != nullptr);
  const std::uint64_t id = next_request_++;
  pending_flushes_[id] = std::move(done);

  FsWriteBack request;
  request.request_id = id;
  request.name = name;
  request.reply_port = reply_port_;

  Message msg;
  msg.dest = server_port_;
  msg.op = MsgOp::kUser;
  msg.no_ious = true;  // written data must physically reach the server
  msg.inline_bytes = 64 + name.size();
  msg.body = request;
  // One region per contiguous run of dirty pages, in file coordinates.
  std::size_t i = 0;
  while (i < file_pages.size()) {
    std::size_t j = i + 1;
    while (j < file_pages.size() && file_pages[j] == file_pages[j - 1] + 1) {
      ++j;
    }
    std::vector<PageRef> pages;
    pages.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) {
      pages.push_back(space->ReadPage(PageOf(base) + file_pages[k]));
    }
    msg.regions.push_back(MemoryRegion::Data(PageBase(file_pages[i]), std::move(pages)));
    i = j;
  }

  Result<void> sent = env_->fabric->Send(env_->id, std::move(msg));
  if (!sent.ok()) {
    FlushDone pending = std::move(pending_flushes_.at(id));
    pending_flushes_.erase(id);
    pending(false);
  }
}

void FileClient::HandleMessage(Message msg) {
  if (const auto* reply = std::any_cast<FsOpenReply>(&msg.body)) {
    auto it = pending_opens_.find(reply->request_id);
    if (it == pending_opens_.end()) {
      return;
    }
    PendingOpen pending = std::move(it->second);
    pending_opens_.erase(it);

    OpenResult result;
    result.ok = reply->found;
    result.size = reply->size;
    if (!reply->found) {
      pending.done(result);
      return;
    }

    const HostId server_home = env_->fabric->HomeOf(server_port_);
    if (server_home == env_->id) {
      // Local file: map the segment directly (disk-backed RealMem).
      Segment* segment = env_->segments->Find(reply->local_segment);
      ACCENT_CHECK(segment != nullptr);
      pending.space->MapReal(pending.base, pending.base + reply->size, segment, 0,
                             /*copy_on_write=*/true);
    } else {
      // Remote file: whole-file copy-on-reference via the server's backer.
      result.lazy = true;
      Segment* standin =
          env_->segments->CreateImaginary(reply->size, reply->iou, "file-standin");
      pending.space->MapImaginary(pending.base, pending.base + reply->size, standin, 0);
    }
    pending.done(result);
    return;
  }
  if (const auto* ack = std::any_cast<FsWriteBackAck>(&msg.body)) {
    auto it = pending_flushes_.find(ack->request_id);
    if (it == pending_flushes_.end()) {
      return;
    }
    FlushDone done = std::move(it->second);
    pending_flushes_.erase(it);
    done(ack->ok);
    return;
  }
  ACCENT_LOG(kDebug) << "file client: unrecognised reply";
}

}  // namespace accent
