#ifndef CAROUSEL_TAPIR_SERVER_H_
#define CAROUSEL_TAPIR_SERVER_H_

#include <unordered_map>

#include "carousel/options.h"
#include "common/topology.h"
#include "common/types.h"
#include "kv/pending_list.h"
#include "kv/versioned_store.h"
#include "runtime/dispatcher.h"
#include "runtime/endpoint.h"
#include "tapir/messages.h"

namespace carousel::tapir {

/// One TAPIR replica: an inconsistent-replication (IR) member plus the
/// TAPIR-OCC transaction store. Replicas are leaderless; the client acts
/// as the transaction coordinator. Implements the validation checks from
/// Zhang et al. (SOSP'15), reduced to version-based OCC:
///
///  * a read of a version that is no longer current votes ABORT (final);
///  * conflicts with tentatively prepared transactions vote ABSTAIN
///    (the fast path then fails and the client falls back to IR's slow
///    path or aborts).
class TapirServer : public runtime::Endpoint {
 public:
  TapirServer(const NodeInfo& info, const core::ServerCostModel& cost);

  void HandleMessage(NodeId from, const sim::MessagePtr& msg) override;
  SimTime ServiceCost(const sim::Message& msg) const override;

  const kv::VersionedStore& store() const { return store_; }
  size_t prepared_count() const { return prepared_.size(); }
  uint64_t committed_count() const { return committed_count_; }
  /// Message routing table (coverage tests).
  const runtime::Dispatcher& dispatcher() const { return dispatcher_; }

 private:
  struct PreparedTxn {
    uint64_t timestamp = 0;
    ReadVersionMap read_versions;
    WriteSet writes;
  };

  void HandleRead(NodeId from, const TapirReadMsg& msg);
  void HandlePrepare(NodeId from, const TapirPrepareMsg& msg);
  void HandleFinalize(NodeId from, const TapirFinalizeMsg& msg);
  void HandleDecide(NodeId from, const TapirDecideMsg& msg);
  Vote Validate(const TapirPrepareMsg& msg) const;
  void RemovePrepared(const TxnId& tid);

  PartitionId partition_;
  core::ServerCostModel cost_;
  runtime::Dispatcher dispatcher_;
  kv::VersionedStore store_;
  std::unordered_map<TxnId, PreparedTxn, TxnIdHash> prepared_;
  /// Per-key prepared reader/writer counts for O(keys) conflict checks.
  std::unordered_map<Key, int> prepared_readers_;
  std::unordered_map<Key, int> prepared_writers_;
  std::unordered_map<TxnId, bool, TxnIdHash> decided_;
  uint64_t committed_count_ = 0;
};

}  // namespace carousel::tapir

#endif  // CAROUSEL_TAPIR_SERVER_H_
