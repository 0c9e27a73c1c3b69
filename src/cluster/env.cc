#include <string>

#include "cluster/cluster.h"
#include "common/env.h"
#include "common/logging.h"

namespace itask::cluster {

ClusterConfig ApplyEnv(ClusterConfig config) {
  if (const std::string spec = common::EnvString("ITASK_FAULTS", ""); !spec.empty()) {
    std::string err;
    if (!chaos::FaultPlan::FromSpec(spec, &config.faults, &err)) {
      LOG_WARN() << "env: ignoring ITASK_FAULTS=\"" << spec << "\": " << err;
    }
  }
  if (const std::string kind = common::EnvString("ITASK_NET_TRANSPORT", ""); !kind.empty()) {
    if (const auto parsed = net::ParseTransportKind(kind)) {
      config.net.kind = *parsed;
    } else {
      LOG_WARN() << "env: ignoring ITASK_NET_TRANSPORT=\"" << kind
                 << "\" (want inproc|tcp|uds); using "
                 << net::TransportKindName(config.net.kind);
    }
  }
  config.net.port = common::EnvInt("ITASK_NET_PORT", config.net.port);
  config.net.bind_host = common::EnvString("ITASK_NET_BIND_HOST", config.net.bind_host);
  core::RecoveryConfig& recovery = config.recovery;
  recovery.heartbeat_ms = common::EnvPositiveDouble("ITASK_HEARTBEAT_MS", recovery.heartbeat_ms);
  recovery.suspect_timeout_ms =
      common::EnvPositiveDouble("ITASK_SUSPECT_TIMEOUT_MS", recovery.suspect_timeout_ms);
  recovery.migration.min_bytes =
      common::EnvU64("ITASK_MIGRATE_MIN_BYTES", recovery.migration.min_bytes);
  recovery.migration.rtt_us =
      common::EnvPositiveDouble("ITASK_MIGRATE_RTT_US", recovery.migration.rtt_us);
  return config;
}

}  // namespace itask::cluster
