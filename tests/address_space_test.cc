// Address-space tests: layout, classification, data plane, IOU targets.
#include <gtest/gtest.h>

#include "src/experiments/testbed.h"
#include "src/vm/address_space.h"

namespace accent {
namespace {

class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpaceTest() : space_(SpaceId(1), HostId(1)) {}

  Testbed bed;
  AddressSpace space_;
};

TEST_F(AddressSpaceTest, ValidateCreatesRealZero) {
  space_.Validate(0, 4 * kPageSize);
  EXPECT_EQ(space_.ClassOf(0), MemClass::kRealZero);
  EXPECT_EQ(space_.ClassOf(4 * kPageSize - 1), MemClass::kRealZero);
  EXPECT_EQ(space_.ClassOf(4 * kPageSize), MemClass::kBad);
  EXPECT_EQ(space_.RealZeroBytes(), 4 * kPageSize);
  EXPECT_EQ(space_.RealBytes(), 0u);
}

TEST_F(AddressSpaceTest, ValidateWholeSpaceIsCheap) {
  // The Lisp pattern: 4 GB validated at birth.
  space_.Validate(0, kAddressSpaceLimit);
  EXPECT_EQ(space_.TotalValidatedBytes(), kAddressSpaceLimit);
  EXPECT_EQ(space_.map_entries(), 1u);
}

TEST_F(AddressSpaceTest, MapRealClassifiesAndReads) {
  Segment* seg = bed.segments().CreateReal(8 * kPageSize, "img");
  seg->StorePage(0, MakePatternPage(7));
  space_.MapReal(2 * kPageSize, 4 * kPageSize, seg, 0, false);
  EXPECT_EQ(space_.ClassOf(2 * kPageSize), MemClass::kReal);
  EXPECT_EQ(space_.ReadPage(2), MakePatternPage(7));
  EXPECT_EQ(space_.ReadPage(3), PageData{});  // sparse segment page
  EXPECT_EQ(space_.RealBytes(), 2 * kPageSize);
}

TEST_F(AddressSpaceTest, SegmentOffsetsRespected) {
  Segment* seg = bed.segments().CreateReal(8 * kPageSize, "img");
  seg->StorePage(3, MakePatternPage(99));
  // VA page 10 maps to segment page 3.
  space_.MapReal(10 * kPageSize, 12 * kPageSize, seg, 3 * kPageSize, false);
  EXPECT_EQ(space_.ReadPage(10), MakePatternPage(99));
}

TEST_F(AddressSpaceTest, ReadByteThroughMapping) {
  Segment* seg = bed.segments().CreateReal(kPageSize, "img");
  PageData page = MakePatternPage(5);
  const std::uint8_t expected = page[17];
  seg->StorePage(0, std::move(page));
  space_.MapReal(0, kPageSize, seg, 0, false);
  EXPECT_EQ(space_.ReadByte(17), expected);
}

TEST_F(AddressSpaceTest, InstallPageMakesPrivateAndReal) {
  space_.Validate(0, 2 * kPageSize);
  EXPECT_FALSE(space_.HasPrivatePage(0));
  space_.InstallPage(0, MakePatternPage(3));
  EXPECT_TRUE(space_.HasPrivatePage(0));
  EXPECT_EQ(space_.ClassOf(0), MemClass::kReal);
  EXPECT_EQ(space_.ClassOf(kPageSize), MemClass::kRealZero);
  EXPECT_EQ(space_.ReadPage(0), MakePatternPage(3));
}

TEST_F(AddressSpaceTest, WriteRequiresPrivatePage) {
  space_.Validate(0, kPageSize);
  space_.InstallPage(0, PageData{});
  space_.WriteByte(5, 42);
  EXPECT_EQ(space_.ReadByte(5), 42);
  EXPECT_EQ(space_.ReadByte(6), 0);
}

TEST_F(AddressSpaceTest, PrivatePageShadowsSegment) {
  Segment* seg = bed.segments().CreateReal(kPageSize, "img");
  seg->StorePage(0, MakePatternPage(1));
  space_.MapReal(0, kPageSize, seg, 0, false);
  space_.InstallPage(0, MakePatternPage(2));
  EXPECT_EQ(space_.ReadPage(0), MakePatternPage(2));
  EXPECT_EQ(seg->ReadPage(0), MakePatternPage(1));  // origin untouched
}

TEST_F(AddressSpaceTest, NeedsCopyOnWriteOnlyForSegmentBackedPages) {
  Segment* seg = bed.segments().CreateReal(kPageSize, "img");
  space_.MapReal(0, kPageSize, seg, 0, false);
  space_.Validate(kPageSize, 2 * kPageSize);
  EXPECT_TRUE(space_.NeedsCopyOnWrite(0));
  EXPECT_FALSE(space_.NeedsCopyOnWrite(1));
  space_.InstallPage(0, space_.ReadPage(0));
  EXPECT_FALSE(space_.NeedsCopyOnWrite(0));
}

TEST_F(AddressSpaceTest, ImagTargetComputesBackerOffset) {
  const IouRef iou{PortId(9), SegmentId(9), 4 * kPageSize};
  Segment* imag = bed.segments().CreateImaginary(64 * kPageSize, iou, "standin");
  space_.MapImaginary(10 * kPageSize, 20 * kPageSize, imag, 2 * kPageSize);
  EXPECT_EQ(space_.ClassOf(10 * kPageSize), MemClass::kImag);
  const auto target = space_.ImagTargetOf(12 * kPageSize);
  EXPECT_EQ(target.iou.backing_port, PortId(9));
  // iou.offset (4 pages) + seg offset (2 pages anchor + 2 pages in) = 8 pages.
  EXPECT_EQ(target.backer_offset, 8 * kPageSize);
}

TEST_F(AddressSpaceTest, ImagRunLengthStopsAtClassBoundary) {
  const IouRef iou{PortId(9), SegmentId(9), 0};
  Segment* imag = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space_.MapImaginary(0, 8 * kPageSize, imag, 0);
  space_.Validate(8 * kPageSize, 9 * kPageSize);
  EXPECT_EQ(space_.ImagRunLength(0, 100), 8u);
  EXPECT_EQ(space_.ImagRunLength(5, 100), 3u);
  EXPECT_EQ(space_.ImagRunLength(5, 2), 2u);  // clamped by max_pages
}

TEST_F(AddressSpaceTest, ImagRunLengthStopsAtFetchedPage) {
  const IouRef iou{PortId(9), SegmentId(9), 0};
  Segment* imag = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space_.MapImaginary(0, 8 * kPageSize, imag, 0);
  space_.InstallPage(4, MakePatternPage(1));  // page 4 fetched -> Real
  EXPECT_EQ(space_.ImagRunLength(0, 100), 4u);
}

TEST_F(AddressSpaceTest, ImagRunLengthStopsAtBackerDiscontinuity) {
  const IouRef iou_a{PortId(9), SegmentId(9), 0};
  const IouRef iou_b{PortId(10), SegmentId(10), 0};
  Segment* a = bed.segments().CreateImaginary(kAddressSpaceLimit, iou_a, "a");
  Segment* b = bed.segments().CreateImaginary(kAddressSpaceLimit, iou_b, "b");
  space_.MapImaginary(0, 4 * kPageSize, a, 0);
  space_.MapImaginary(4 * kPageSize, 8 * kPageSize, b, 4 * kPageSize);
  EXPECT_EQ(space_.ImagRunLength(0, 100), 4u);
}

TEST_F(AddressSpaceTest, ImaginaryBackersDeduplicated) {
  const IouRef iou{PortId(9), SegmentId(9), 0};
  Segment* imag = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space_.MapImaginary(0, 2 * kPageSize, imag, 0);
  space_.MapImaginary(10 * kPageSize, 12 * kPageSize, imag, 10 * kPageSize);
  const auto backers = space_.ImaginaryBackers();
  ASSERT_EQ(backers.size(), 1u);
  EXPECT_EQ(backers[0].backing_port, PortId(9));
}

TEST_F(AddressSpaceTest, UnmapRemovesEverything) {
  space_.Validate(0, 4 * kPageSize);
  space_.InstallPage(1, MakePatternPage(1));
  space_.Unmap(0, 4 * kPageSize);
  EXPECT_EQ(space_.ClassOf(0), MemClass::kBad);
  EXPECT_FALSE(space_.HasPrivatePage(1));
  EXPECT_EQ(space_.TotalValidatedBytes(), 0u);
}

TEST_F(AddressSpaceTest, RealPagesEnumeratesAscending) {
  Segment* seg = bed.segments().CreateReal(16 * kPageSize, "img");
  space_.MapReal(8 * kPageSize, 10 * kPageSize, seg, 0, false);
  space_.MapReal(2 * kPageSize, 3 * kPageSize, seg, 4 * kPageSize, false);
  EXPECT_EQ(space_.RealPages(), (std::vector<PageIndex>{2, 8, 9}));
}

TEST_F(AddressSpaceTest, TouchedTracking) {
  space_.Validate(0, 4 * kPageSize);
  space_.NoteTouched(1);
  space_.NoteTouched(1);
  space_.NoteTouched(3);
  EXPECT_EQ(space_.touched_page_count(), 2u);
}

}  // namespace
}  // namespace accent
