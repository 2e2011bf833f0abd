// HostEnv: one simulated machine's assembled subsystems.
//
// Construction/wiring is done by the Testbed (src/experiments); modules
// below this level take only the specific dependencies they need, so this
// bundle exists purely to pass "a machine" around.
#ifndef SRC_PROC_HOST_ENV_H_
#define SRC_PROC_HOST_ENV_H_

#include "src/base/types.h"
#include "src/host/calibration.h"
#include "src/host/cpu.h"
#include "src/host/disk.h"
#include "src/host/physical_memory.h"
#include "src/ipc/fabric.h"
#include "src/sim/simulator.h"
#include "src/vm/pager.h"
#include "src/vm/segment.h"

namespace accent {

class NetMsgServer;

struct HostEnv {
  HostId id;
  Simulator* sim = nullptr;
  const CostTable* costs = nullptr;
  IpcFabric* fabric = nullptr;
  Cpu* cpu = nullptr;
  Disk* disk = nullptr;
  PhysicalMemory* memory = nullptr;
  Pager* pager = nullptr;
  NetMsgServer* netmsg = nullptr;     // null on isolated single-host setups
  SegmentTable* segments = nullptr;   // shared per simulation
  // This host's deviation from the shared CostTable (identity by default).
  // The pre-copy SLO predictor and LoadBalancerPolicy read it; CPU/wire
  // charging is already applied by the subsystems themselves. A diskless
  // host pages across the wire and must never anchor local backing
  // (FileServer::Start refuses to run here).
  HostCalibration calibration{};

  bool complete() const {
    return sim != nullptr && costs != nullptr && fabric != nullptr && cpu != nullptr &&
           disk != nullptr && memory != nullptr && pager != nullptr && segments != nullptr;
  }
};

}  // namespace accent

#endif  // SRC_PROC_HOST_ENV_H_
