#include "core/types.h"

#include <gtest/gtest.h>

#include <string>

namespace dicho::core {
namespace {

TxnRequest SampleRequest() {
  TxnRequest request;
  request.txn_id = 0x0102030405060708ull;
  request.client_id = 42;
  request.contract = "smallbank";
  request.method = "send_payment";
  request.args = {"alice", "", "bob"};
  request.ops = {{OpType::kRead, "a", ""},
                 {OpType::kWrite, "b", std::string(300, 'v')},
                 {OpType::kReadModifyWrite, "", "x"}};
  return request;
}

TEST(TxnRequestTest, ViewDecoderMatchesDeserialize) {
  const std::string wire = SampleRequest().Serialize();
  TxnRequest decoded;
  ASSERT_TRUE(TxnRequest::Deserialize(wire, &decoded));
  TxnRequestView view;
  ASSERT_TRUE(TxnRequestView::Parse(wire, &view));

  EXPECT_EQ(view.txn_id, decoded.txn_id);
  EXPECT_EQ(view.client_id, decoded.client_id);
  EXPECT_EQ(view.contract.ToString(), decoded.contract);
  EXPECT_EQ(view.method.ToString(), decoded.method);
  ASSERT_EQ(view.args.size(), decoded.args.size());
  for (size_t i = 0; i < view.args.size(); i++) {
    EXPECT_EQ(view.args[i].ToString(), decoded.args[i]) << i;
  }
  ASSERT_EQ(view.ops.size(), decoded.ops.size());
  const char* begin = wire.data();
  const char* end = wire.data() + wire.size();
  for (size_t i = 0; i < view.ops.size(); i++) {
    EXPECT_EQ(view.ops[i].type, decoded.ops[i].type) << i;
    EXPECT_EQ(view.ops[i].key.ToString(), decoded.ops[i].key) << i;
    EXPECT_EQ(view.ops[i].value.ToString(), decoded.ops[i].value) << i;
    // The views point into the encoded buffer, not at copies.
    EXPECT_GE(view.ops[i].value.data(), begin) << i;
    EXPECT_LE(view.ops[i].value.data() + view.ops[i].value.size(), end) << i;
  }
  EXPECT_EQ(decoded.Serialize(), wire);

  // Both reject every truncation and trailing garbage alike.
  for (size_t n = 0; n < wire.size(); n++) {
    const std::string cut = wire.substr(0, n);
    EXPECT_FALSE(TxnRequestView::Parse(cut, &view)) << n;
    EXPECT_FALSE(TxnRequest::Deserialize(cut, &decoded)) << n;
  }
  EXPECT_FALSE(TxnRequestView::Parse(wire + "!", &view));
  EXPECT_FALSE(TxnRequest::Deserialize(wire + "!", &decoded));
}

}  // namespace
}  // namespace dicho::core
