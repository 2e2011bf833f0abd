// NetMsgServer tests: fragmentation/reassembly on both transports, IOU
// substitution (section 2.4), the NoIOUs bit, adopted-object backing, cost
// structure, and the reliable transport's two-generals case.
#include <gtest/gtest.h>

#include "src/experiments/chain.h"
#include "src/experiments/testbed.h"
#include "src/trace/trace.h"

namespace accent {
namespace {

struct Sink : Receiver {
  std::vector<Message> received;
  void HandleMessage(Message msg) override { received.push_back(std::move(msg)); }
};

Message DataMessage(PortId dest, int pages, MsgOp op = MsgOp::kUser) {
  Message msg;
  msg.dest = dest;
  msg.op = op;
  std::vector<PageData> data;
  for (int i = 0; i < pages; ++i) {
    data.push_back(MakePatternPage(static_cast<std::uint64_t>(i) + 1));
  }
  msg.regions.push_back(MemoryRegion::Data(0, std::move(data)));
  return msg;
}

// A bed whose fault plan holds only a crash of `host` from `at` on. Any
// fault plan switches every NetMsgServer to the reliable transport; with
// the crash parked past the run (chain.h's kParkedCrash) the wire stays
// lossless.
TestbedConfig CrashBed(HostId host, SimTime at) {
  TestbedConfig config;
  config.fault_plan.crashes.push_back(CrashWindow{host, at, kFaultForever});
  return config;
}

class NetMsgTest : public ::testing::Test {
 protected:
  explicit NetMsgTest(const TestbedConfig& config = {}) : bed(config) {}

  PortId RemotePort() { return bed.fabric().AllocatePort(bed.host(1)->id, &sink, "remote"); }

  // The fragmenting and reassembly checks, run on both transports.
  void LargeMessagesFragment();
  void StoreAndForwardSerialisesCpuPhases();
  void InterleavedTransfersReassembleIndependently();

  Testbed bed;
  Sink sink;
};

// The reliable transport (acks and retry timers on) over a lossless wire.
class NetMsgReliableTest : public NetMsgTest {
 protected:
  NetMsgReliableTest() : NetMsgTest(CrashBed(HostId(2), kParkedCrash)) {}
};

void NetMsgTest::LargeMessagesFragment() {
  const PortId port = RemotePort();
  Message msg = DataMessage(port, 100, MsgOp::kUser);
  msg.no_ious = true;  // keep the data physical for this test
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  const auto& stats = bed.netmsg(0)->stats();
  // 100 pages ~ 51 KB over 16 KB fragments -> 4 fragments.
  EXPECT_EQ(stats.fragments_sent, 4u);
  EXPECT_EQ(bed.netmsg(1)->stats().fragments_received, 4u);
  EXPECT_EQ(stats.messages_forwarded, 1u);
  // Payload integrity after reassembly.
  EXPECT_EQ(sink.received[0].regions.at(0).pages.at(37), MakePatternPage(38));
}

TEST_F(NetMsgTest, LargeMessagesFragment) { LargeMessagesFragment(); }
TEST_F(NetMsgReliableTest, LargeMessagesFragment) { LargeMessagesFragment(); }

TEST_F(NetMsgTest, SubstitutesIousForEligibleRealRegions) {
  const PortId port = RemotePort();
  Message msg = DataMessage(port, 100, MsgOp::kUser);  // no_ious defaults false
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  const Message& arrived = sink.received[0];
  ASSERT_EQ(arrived.regions.size(), 1u);
  EXPECT_EQ(arrived.regions[0].mem_class, MemClass::kImag);
  EXPECT_TRUE(arrived.regions[0].iou.valid());
  EXPECT_EQ(bed.netmsg(0)->stats().regions_cached, 1u);
  EXPECT_EQ(bed.netmsg(0)->stats().bytes_cached, 100 * kPageSize);
  // The bytes stayed home: far fewer than 51 KB crossed.
  EXPECT_LT(bed.traffic().TotalBytes(), 2048u);
  // The local backer now owns the object.
  EXPECT_TRUE(bed.netmsg(0)->backer().Owns(arrived.regions[0].iou.segment));
}

TEST_F(NetMsgTest, NoIousBitInhibitsSubstitution) {
  const PortId port = RemotePort();
  Message msg = DataMessage(port, 100, MsgOp::kUser);
  msg.no_ious = true;
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].regions.at(0).mem_class, MemClass::kReal);
  EXPECT_EQ(bed.netmsg(0)->stats().regions_cached, 0u);
  EXPECT_GT(bed.traffic().TotalBytes(), 100 * kPageSize);
}

TEST_F(NetMsgTest, CachingKnobDisablesSubstitution) {
  bed.netmsg(0)->set_iou_caching(false);
  const PortId port = RemotePort();
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, DataMessage(port, 20, MsgOp::kUser)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].regions.at(0).mem_class, MemClass::kReal);
}

TEST_F(NetMsgTest, ProtocolRepliesNeverSubstituted) {
  const PortId port = RemotePort();
  Message msg = DataMessage(port, 20, MsgOp::kImagReadReply);
  msg.body = std::string("opaque");
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].regions.at(0).mem_class, MemClass::kReal);
}

TEST_F(NetMsgTest, SubstitutedDataIsServedOnFault) {
  // End-to-end copy-on-reference through the NetMsgServer cache: host 1 maps
  // the IOU region and faults pages back from host 0's cache.
  const PortId port = RemotePort();
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, DataMessage(port, 10, MsgOp::kUser)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  const MemoryRegion& region = sink.received[0].regions.at(0);
  ASSERT_EQ(region.mem_class, MemClass::kImag);

  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(1)->id);
  IouRef iou = region.iou;
  const ByteCount target = iou.offset + region.base;
  iou.offset = 0;
  Segment* standin = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space->MapImaginary(0, region.size, standin, target);

  for (PageIndex p = 0; p < 10; ++p) {
    bool done = false;
    bed.pager(1)->Access(space.get(), PageBase(p), false, [&](const AccessOutcome&) {
      done = true;
    });
    bed.sim().Run();
    ASSERT_TRUE(done);
    EXPECT_EQ(space->ReadPage(p), MakePatternPage(p + 1)) << "page " << p;
  }
}

TEST_F(NetMsgTest, AdoptPagesCreatesVaIndexedBackedObject) {
  std::vector<std::pair<PageIndex, PageRef>> pages;
  pages.emplace_back(7, MakePatternPage(7));
  pages.emplace_back(9000, MakePatternPage(9000));
  const IouRef iou = bed.netmsg(0)->AdoptPages(std::move(pages), "adopted");
  EXPECT_TRUE(iou.valid());
  EXPECT_EQ(iou.backing_port, bed.netmsg(0)->backing_port());
  EXPECT_TRUE(bed.netmsg(0)->backer().Owns(iou.segment));
}

void NetMsgTest::StoreAndForwardSerialisesCpuPhases() {
  // The receiver's per-byte handling must start only after the last
  // fragment: end-to-end time ~ 2x one node's processing, not ~1x.
  const PortId port = RemotePort();
  Message msg = DataMessage(port, 200, MsgOp::kUser);  // ~102 KB
  msg.no_ious = true;
  const ByteCount wire_estimate = 200 * kPageSize;
  const SimTime start = bed.sim().Now();
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  const double elapsed = ToSeconds(bed.sim().Now() - start);
  const double one_side = ToSeconds(bed.costs().netmsg_per_byte) * wire_estimate;
  EXPECT_GT(elapsed, 1.8 * one_side);
}

TEST_F(NetMsgTest, StoreAndForwardSerialisesCpuPhases) { StoreAndForwardSerialisesCpuPhases(); }
TEST_F(NetMsgReliableTest, StoreAndForwardSerialisesCpuPhases) {
  StoreAndForwardSerialisesCpuPhases();
}

void NetMsgTest::InterleavedTransfersReassembleIndependently() {
  const PortId port = RemotePort();
  // Two large messages from both directions at once.
  Sink sink0;
  const PortId back_port = bed.fabric().AllocatePort(bed.host(0)->id, &sink0, "back");
  Message a = DataMessage(port, 64, MsgOp::kUser);
  a.no_ious = true;
  Message b = DataMessage(back_port, 48, MsgOp::kUser);
  b.no_ious = true;
  ASSERT_TRUE(bed.fabric().Send(bed.host(0)->id, std::move(a)).ok());
  ASSERT_TRUE(bed.fabric().Send(bed.host(1)->id, std::move(b)).ok());
  bed.sim().Run();
  ASSERT_EQ(sink.received.size(), 1u);
  ASSERT_EQ(sink0.received.size(), 1u);
  EXPECT_EQ(sink.received[0].regions.at(0).pages.size(), 64u);
  EXPECT_EQ(sink0.received[0].regions.at(0).pages.size(), 48u);
}

TEST_F(NetMsgTest, InterleavedTransfersReassembleIndependently) {
  InterleavedTransfersReassembleIndependently();
}
TEST_F(NetMsgReliableTest, InterleavedTransfersReassembleIndependently) {
  InterleavedTransfersReassembleIndependently();
}

TEST_F(NetMsgReliableTest, AcksLostAfterDeliveryAreNotADeadLetter) {
  // The two-generals case: the message's only fragment reaches the
  // receiver, then the sender's host goes down for good, so every ack and
  // every retransmission is lost. The sender's retries run out, but the
  // receiver already holds the message: it is delivered once and the
  // sender's verdict is downgraded from dead letter to success.
  auto send = [](Testbed* on, Sink* to) {
    const PortId port = on->fabric().AllocatePort(on->host(1)->id, to, "remote");
    Message msg = DataMessage(port, 10);
    msg.no_ious = true;
    ASSERT_TRUE(on->fabric().Send(on->host(0)->id, std::move(msg)).ok());
  };

  // A probe on the lossless fixture bed finds the frame's wire span.
  Tracer tracer;
  bed.sim().set_tracer(&tracer);
  send(&bed, &sink);
  bed.sim().Run();
  bed.sim().set_tracer(nullptr);
  ASSERT_EQ(bed.netmsg(0)->stats().fragments_sent, 1u);
  const TraceEvent* frame = nullptr;
  for (const TraceEvent& event : tracer.events()) {
    if (event.name == "wire:tx" && event.host == bed.host(0)->id) {
      frame = &event;
      break;
    }
  }
  ASSERT_NE(frame, nullptr);

  Testbed crashed(CrashBed(bed.host(0)->id, frame->ts + frame->dur / 2));
  Sink receiver;
  int dead_letters = 0;
  crashed.netmsg(0)->set_dead_letter_handler([&dead_letters](const Message&) { ++dead_letters; });
  send(&crashed, &receiver);
  crashed.sim().Run();

  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(receiver.received[0].regions.at(0).pages.at(9), MakePatternPage(10));
  const NetMsgStats& sender = crashed.netmsg(0)->stats();
  EXPECT_EQ(sender.fragments_retransmitted, crashed.costs().netmsg_max_retries);
  EXPECT_EQ(sender.acks_received, 0u);
  EXPECT_EQ(sender.transfers_dead_lettered, 0u);
  EXPECT_EQ(dead_letters, 0);
  EXPECT_EQ(crashed.netmsg(1)->stats().messages_delivered, 1u);
}

}  // namespace
}  // namespace accent
