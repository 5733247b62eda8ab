#include "core/types.h"

#include "common/coding.h"

namespace dicho::core {

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kWriteConflict:
      return "write-conflict";
    case AbortReason::kReadConflict:
      return "read-conflict";
    case AbortReason::kInconsistentEndorsement:
      return "inconsistent-endorsement";
    case AbortReason::kContention:
      return "contention";
    case AbortReason::kConstraint:
      return "constraint";
    case AbortReason::kUnavailable:
      return "unavailable";
    case AbortReason::kOther:
      return "other";
    case AbortReason::kAdmissionReject:
      return "admission-reject";
    case AbortReason::kBadSignature:
      return "bad-signature";
  }
  return "unknown";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kAuth:
      return "auth";
    case Phase::kCommit:
      return "commit";
    case Phase::kConsensus:
      return "consensus";
    case Phase::kConsensusCommit:
      return "consensus+commit";
    case Phase::kEvmRead:
      return "evm-read";
    case Phase::kExecute:
      return "execute";
    case Phase::kOrder:
      return "order";
    case Phase::kParse:
      return "parse";
    case Phase::kPrewrite:
      return "prewrite";
    case Phase::kProposal:
      return "proposal";
    case Phase::kRead:
      return "read";
    case Phase::kValidate:
      return "validate";
  }
  return "unknown";
}

std::string TxnRequest::Serialize() const {
  std::string out;
  PutFixed64(&out, txn_id);
  PutFixed64(&out, client_id);
  PutLengthPrefixed(&out, contract);
  PutLengthPrefixed(&out, method);
  PutVarint32(&out, static_cast<uint32_t>(args.size()));
  for (const auto& a : args) PutLengthPrefixed(&out, a);
  PutVarint32(&out, static_cast<uint32_t>(ops.size()));
  for (const auto& op : ops) {
    out.push_back(static_cast<char>(op.type));
    PutLengthPrefixed(&out, op.key);
    PutLengthPrefixed(&out, op.value);
  }
  return out;
}

bool TxnRequest::Deserialize(const std::string& data, TxnRequest* out) {
  Slice in(data);
  Slice contract, method;
  uint32_t nargs, nops;
  if (!GetFixed64(&in, &out->txn_id) || !GetFixed64(&in, &out->client_id) ||
      !GetLengthPrefixed(&in, &contract) ||
      !GetLengthPrefixed(&in, &method) || !GetVarint32(&in, &nargs)) {
    return false;
  }
  out->contract = contract.ToString();
  out->method = method.ToString();
  out->args.clear();
  for (uint32_t i = 0; i < nargs; i++) {
    Slice a;
    if (!GetLengthPrefixed(&in, &a)) return false;
    out->args.push_back(a.ToString());
  }
  if (!GetVarint32(&in, &nops)) return false;
  out->ops.clear();
  for (uint32_t i = 0; i < nops; i++) {
    if (in.empty()) return false;
    Op op;
    op.type = static_cast<OpType>(in[0]);
    in.RemovePrefix(1);
    Slice key, value;
    if (!GetLengthPrefixed(&in, &key) || !GetLengthPrefixed(&in, &value)) {
      return false;
    }
    op.key = key.ToString();
    op.value = value.ToString();
    out->ops.push_back(std::move(op));
  }
  return in.empty();
}

}  // namespace dicho::core
