// Files through IPC — the Accent file model (sections 2.1 and 6).
//
// Accent accesses files through an IPC interface and maps them *in their
// entirety* into process memory, which is what lets the copy-on-write and
// copy-on-reference machinery apply to file data. A FileServer owns the
// files of one host (name -> segment on the local disk) and answers open
// requests:
//   - a local client maps the returned segment directly (RealMem; faults go
//     to the local disk);
//   - a remote client receives an IouRef instead and maps the file
//     imaginary — whole-file remote access becomes copy-on-reference, the
//     "remote file and database access" application the paper's conclusion
//     proposes.
// Dirty pages are written back through kFsWriteBack messages.
//
// The server doubles as the durable checkpoint store (docs/INTERNALS.md
// §16): a kCheckpointPut walks one excised process image — AMap rider, Core
// context, RIMAS regions — into a fresh versioned store object, and a
// kCheckpointGet re-issues the image so any surviving host can re-incarnate
// the process after total origin death. The store object is host-independent
// backing: restored pages fault at this server, not at whichever host
// happened to cache them en route.
#ifndef SRC_FS_FILE_SERVICE_H_
#define SRC_FS_FILE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/ipc/fabric.h"
#include "src/proc/excise.h"
#include "src/proc/host_env.h"
#include "src/vm/address_space.h"
#include "src/vm/backer.h"
#include "src/vm/segment.h"

namespace accent {

// File protocol ops ride on MsgOp::kUser with this selector in the body.
enum class FsOp : int {
  kOpenRequest,
  kOpenReply,
  kWriteBack,
  kWriteBackAck,
  kCheckpointPut,
  kCheckpointPutAck,
  kCheckpointGet,
  kCheckpointGetReply,
};

struct FsOpenRequest {
  FsOp fs_op = FsOp::kOpenRequest;
  std::uint64_t request_id = 0;
  std::string name;
  PortId reply_port;
};

struct FsOpenReply {
  FsOp fs_op = FsOp::kOpenReply;
  std::uint64_t request_id = 0;
  bool found = false;
  ByteCount size = 0;
  // Remote opens: the file as a lazily-delivered object.
  IouRef iou;
  // Local opens: the segment to map directly.
  SegmentId local_segment;
};

struct FsWriteBack {
  FsOp fs_op = FsOp::kWriteBack;
  std::uint64_t request_id = 0;
  std::string name;
  PortId reply_port;
  // Dirty pages ride as the message's data region (base = file offset).
};

struct FsWriteBackAck {
  FsOp fs_op = FsOp::kWriteBackAck;
  std::uint64_t request_id = 0;
  bool ok = false;
  PageIndex pages_written = 0;
};

// Checkpoint put: one excised process image. Core context and the port-right
// manifest travel in the body; the AMap rides on the message; the RIMAS
// regions (RealMem page data plus any inherited IOU debt) ride as
// msg.regions. `materialize` lists the pages a restore must re-install
// physically so the restored incarnation reproduces the destination's
// private-page profile at insert time — the resident set for kResidentSet,
// everything for the full-image strategies, nothing for pure-IOU.
struct FsCheckpointPut {
  FsOp fs_op = FsOp::kCheckpointPut;
  std::uint64_t request_id = 0;
  PortId reply_port;
  CoreBody core;
  std::vector<PortRightTransfer> rights;
  std::vector<PageIndex> materialize;
  bool materialize_all = false;
};

struct FsCheckpointPutAck {
  FsOp fs_op = FsOp::kCheckpointPutAck;
  std::uint64_t request_id = 0;
  ProcId proc;
  std::uint64_t version = 0;
  PageIndex pages_stored = 0;
};

struct FsCheckpointGet {
  FsOp fs_op = FsOp::kCheckpointGet;
  std::uint64_t request_id = 0;
  ProcId proc;
  PortId reply_port;
};

// The restore image. Besides the body, the reply message carries the AMap
// rider, Data regions for the materialize set, one store-backed IOU region
// spanning the whole address space, and then any inherited IOU regions —
// InsertProcess's smallest-covering-region rule routes pre-existing debt at
// its original backers while everything else faults at the store.
struct FsCheckpointGetReply {
  FsOp fs_op = FsOp::kCheckpointGetReply;
  std::uint64_t request_id = 0;
  ProcId proc;
  bool found = false;
  std::uint64_t version = 0;
  CoreBody core;
  std::vector<PortRightTransfer> rights;
};

class FileServer : public Receiver {
 public:
  explicit FileServer(HostEnv* env);

  // Allocates the service port and the backing port.
  void Start();
  PortId port() const { return port_; }
  HostId host() const { return env_->id; }

  // Creates a file of `size` bytes filled from `seed` (deterministic
  // pattern; page p reads as MakePatternPage(seed + p), generated on its
  // first read by PageRef::Pattern). Zero seed leaves the file sparse (all
  // zeroes).
  Segment* CreateFile(const std::string& name, ByteCount size, std::uint64_t seed);

  Segment* Find(const std::string& name) const;
  std::size_t file_count() const { return files_.size(); }
  std::uint64_t opens_served() const { return opens_served_; }
  std::uint64_t pages_written_back() const { return pages_written_back_; }
  std::uint64_t duplicate_writebacks() const { return duplicate_writebacks_; }

  // Checkpoint store observability.
  std::uint64_t checkpoints_stored() const { return checkpoints_stored_; }
  std::uint64_t checkpoint_pages_stored() const { return checkpoint_pages_stored_; }
  std::uint64_t restores_served() const { return restores_served_; }
  // Number of retained versions for `proc` (0 if never checkpointed).
  std::uint64_t checkpoint_versions(ProcId proc) const;

  // Receiver.
  void HandleMessage(Message msg) override;
  const char* receiver_name() const override { return "file-server"; }

 private:
  void ServeOpen(const Message& msg);
  void ServeWriteBack(Message msg);
  void ServeCheckpointPut(Message msg);
  void ServeCheckpointGet(const Message& msg);

  // One retained checkpoint of one process. The image segment is a sparse,
  // VA-indexed store object owned by the backer; the manifest's Back()
  // reference holds it for the life of the server (restores AddRef and the
  // restored space's death notice balances each one).
  struct CheckpointVersion {
    std::uint64_t version = 0;
    CoreBody core;
    std::vector<PortRightTransfer> rights;
    AMap amap;
    IouRef image;
    Segment* image_segment = nullptr;
    std::vector<PageIndex> stored_pages;  // ascending
    std::vector<PageIndex> materialize;   // ascending; restore re-installs these
    bool materialize_all = false;
    std::vector<MemoryRegion> inherited;  // IOU debt carried into the checkpoint
  };

  HostEnv* env_;
  PortId port_;
  SegmentBacker backer_;
  std::map<std::string, Segment*> files_;
  std::map<std::uint64_t, std::string> backed_files_;  // segment id -> name
  std::map<std::uint64_t, std::vector<CheckpointVersion>> checkpoints_;  // by proc
  // Write-back replay memory: (reply_port, request_id) -> the ack already
  // sent. A duplicated request re-sends the remembered ack instead of
  // applying the pages twice (idempotency under a lossy wire).
  std::map<std::pair<std::uint64_t, std::uint64_t>, FsWriteBackAck> writeback_acks_;
  std::uint64_t opens_served_ = 0;
  std::uint64_t pages_written_back_ = 0;
  std::uint64_t duplicate_writebacks_ = 0;
  std::uint64_t checkpoints_stored_ = 0;
  std::uint64_t checkpoint_pages_stored_ = 0;
  std::uint64_t restores_served_ = 0;
};

// Client-side helper: opens `name` against a FileServer and maps the whole
// file at `base` in `space` — directly when the server is local, imaginary
// (copy-on-reference) when it is remote.
class FileClient : public Receiver {
 public:
  FileClient(HostEnv* env, PortId server_port);

  void Start();

  struct OpenResult {
    bool ok = false;
    ByteCount size = 0;
    bool lazy = false;  // mapped imaginary (remote server)
  };
  using OpenDone = std::function<void(OpenResult)>;

  // Opens and maps; `done` runs when the mapping is installed.
  void OpenAndMap(const std::string& name, AddressSpace* space, Addr base, OpenDone done);

  // Ships `pages` (file-relative) of dirty data back to the server.
  using FlushDone = std::function<void(bool ok)>;
  void WriteBack(const std::string& name, AddressSpace* space, Addr base,
                 const std::vector<PageIndex>& file_pages, FlushDone done);

  // Receiver: open replies / write-back acks.
  void HandleMessage(Message msg) override;
  const char* receiver_name() const override { return "file-client"; }

 private:
  struct PendingOpen {
    AddressSpace* space;
    Addr base;
    OpenDone done;
  };

  HostEnv* env_;
  PortId server_port_;
  PortId reply_port_;
  std::uint64_t next_request_ = 1;
  std::map<std::uint64_t, PendingOpen> pending_opens_;
  std::map<std::uint64_t, FlushDone> pending_flushes_;
};

}  // namespace accent

#endif  // SRC_FS_FILE_SERVICE_H_
