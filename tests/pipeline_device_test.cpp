// acgpu::Device ownership API: process-unique ids, the registry, health
// flagging (fail-stop), and Engines bound to an explicit Device — including
// several engines sharing one device.
#include "pipeline/device.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "gpusim/device_registry.h"
#include "pipeline/engine.h"

namespace acgpu {
namespace {

DeviceOptions small_device() {
  DeviceOptions opt;
  opt.gpu.num_sms = 4;
  opt.memory_bytes = 64u << 20;
  return opt;
}

EngineOptions fast_engine() {
  EngineOptions opt;
  opt.mode = gpusim::SimMode::Functional;
  opt.threads_per_block = 64;
  return opt;
}

TEST(Device, IdsAreProcessUniqueAndRegistered) {
  Device a = Device::create(small_device()).value();
  Device b = Device::create(small_device()).value();
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.name(), "device." + std::to_string(a.id()));
  EXPECT_EQ(gpusim::device_name(a.id()), a.name());
  EXPECT_EQ(gpusim::device_name(b.id()), b.name());

  bool saw_a = false, saw_b = false;
  for (const gpusim::DeviceInfo& info : gpusim::registered_devices()) {
    saw_a |= info.id == a.id();
    saw_b |= info.id == b.id();
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(Device, DestructionUnregisters) {
  std::uint32_t id = 0;
  {
    Device d = Device::create(small_device()).value();
    id = d.id();
    EXPECT_FALSE(gpusim::device_name(id).empty());
  }
  EXPECT_TRUE(gpusim::device_name(id).empty());
}

TEST(Device, CustomNameAndZeroMemoryRejected) {
  DeviceOptions opt = small_device();
  opt.name = "edge-node-3";
  Device d = Device::create(opt).value();
  EXPECT_EQ(d.name(), "edge-node-3");
  EXPECT_EQ(gpusim::device_name(d.id()), "edge-node-3");

  opt.memory_bytes = 0;
  EXPECT_EQ(Device::create(opt).status().code(), StatusCode::kInvalidArgument);
}

TEST(Device, HealthFlagGatesEngineScans) {
  Device device = Device::create(small_device()).value();
  Engine engine =
      Engine::create(device, ac::PatternSet({"he", "she"}), fast_engine())
          .value();
  ASSERT_TRUE(engine.scan("ushers").is_ok());

  device.mark_failed("pulled for maintenance");
  EXPECT_FALSE(device.healthy());
  EXPECT_EQ(device.fail_reason(), "pulled for maintenance");
  const auto failed = engine.scan("ushers");
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  device.restore();
  EXPECT_TRUE(device.healthy());
  EXPECT_TRUE(engine.scan("ushers").is_ok());
}

TEST(Device, EnginesShareOneDeviceAndAgree) {
  Device device = Device::create(small_device()).value();
  Engine a = Engine::create(device, ac::PatternSet({"ab"}), fast_engine())
                 .value();
  Engine b = Engine::create(device, ac::PatternSet({"abc", "bc"}),
                            fast_engine())
                 .value();
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(&a.device(), &device);
  EXPECT_EQ(&b.device(), &device);

  const std::string text = "xabcababc";
  EXPECT_EQ(a.scan(text).value().matches, ac::find_all(a.dfa(), text));
  EXPECT_EQ(b.scan(text).value().matches, ac::find_all(b.dfa(), text));
}

TEST(Device, EngineIdsAreUniqueAcrossDevices) {
  Device d1 = Device::create(small_device()).value();
  Device d2 = Device::create(small_device()).value();
  std::vector<std::uint32_t> ids;
  for (Device* d : {&d1, &d2})
    for (int i = 0; i < 3; ++i)
      ids.push_back(Engine::create(*d, ac::PatternSet({"x"}), fast_engine())
                        .value()
                        .id());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = i + 1; j < ids.size(); ++j)
      EXPECT_NE(ids[i], ids[j]);
}

TEST(Device, DfaOverloadBindsToExplicitDevice) {
  Device device = Device::create(small_device()).value();
  ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"ab"}), 8);
  Engine engine = Engine::create(device, std::move(dfa), fast_engine()).value();
  EXPECT_EQ(engine.scan("abab").value().matches.size(), 2u);
}

}  // namespace
}  // namespace acgpu
