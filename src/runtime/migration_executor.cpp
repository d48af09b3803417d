#include "runtime/migration_executor.hpp"

#include <utility>

#include "common/assert.hpp"

namespace xartrek::runtime {

MigrationExecutor::MigrationExecutor(platform::Testbed& testbed, Logger log)
    : testbed_(testbed), log_(std::move(log)) {}

void MigrationExecutor::execute(Target target, const FunctionCosts& costs,
                                DoneCallback on_done, bool wait_for_fpga) {
  XAR_EXPECTS(on_done != nullptr);
  switch (target) {
    case Target::kX86:  execute_x86(costs, std::move(on_done)); return;
    case Target::kArm:  execute_arm(costs, std::move(on_done)); return;
    case Target::kFpga:
      execute_fpga(costs, std::move(on_done), wait_for_fpga);
      return;
  }
  XAR_ASSERT(false);
}

void MigrationExecutor::execute_x86(const FunctionCosts& costs,
                                    DoneCallback on_done) {
  const TimePoint start = testbed_.simulation().now();
  testbed_.x86().run(costs.x86_ms,
                     [this, start, cb = std::move(on_done)]() mutable {
                       cb(testbed_.simulation().now() - start);
                     });
}

void MigrationExecutor::execute_arm(const FunctionCosts& costs,
                                    DoneCallback on_done) {
  // Outbound: the state transform runs on the (contended) x86 host
  // *concurrently* with the working-set burst on the wire -- the bulk of
  // the payload is data pages that need no rewriting, so transformation
  // hides behind the transfer and the leg costs max(transform, wire)
  // instead of their sum.  The return trip mirrors it on the ARM side.
  struct Flight {
    MigrationExecutor* self;
    FunctionCosts costs;
    TimePoint start;
    DoneCallback cb;
    int legs = 2;
  };
  auto flight = std::make_shared<Flight>(Flight{
      this, costs, testbed_.simulation().now(), std::move(on_done)});
  auto outbound = [flight] {
    if (--flight->legs != 0) return;
    MigrationExecutor& self = *flight->self;
    // Remote execution on the ARM cluster, then the overlapped return.
    self.testbed_.arm().run(flight->costs.arm_ms, [flight] {
      MigrationExecutor& ex = *flight->self;
      flight->legs = 2;
      auto inbound = [flight] {
        if (--flight->legs != 0) return;
        flight->cb(flight->self->testbed_.simulation().now() -
                   flight->start);
      };
      ex.testbed_.arm().run(flight->costs.transform_ms, inbound);
      ex.testbed_.ethernet().transfer(flight->costs.return_bytes,
                                      std::move(inbound));
    });
  };
  testbed_.x86().run(costs.transform_ms, outbound);
  testbed_.ethernet().transfer(costs.migrate_bytes, std::move(outbound));
}

void MigrationExecutor::execute_fpga(const FunctionCosts& costs,
                                     DoneCallback on_done,
                                     bool wait_for_fpga) {
  const TimePoint start = testbed_.simulation().now();
  auto& sim = testbed_.simulation();
  auto& device = testbed_.fpga();

  if (!device.has_kernel(costs.kernel_name)) {
    if (wait_for_fpga) {
      // Poll until the kernel appears (lazy-configuration stall).
      sim.schedule_in(
          Duration::ms(10.0),
          [this, costs, cb = std::move(on_done), start]() mutable {
            execute_fpga(costs,
                         [this, cb = std::move(cb), start](Duration) mutable {
                           cb(testbed_.simulation().now() - start);
                         },
                         true);
          });
      return;
    }
    // Kernel vanished between decision and call: benign race; run the
    // software version locally instead.
    ++fallbacks_;
    log_.debug("executor: kernel ", costs.kernel_name,
               " not resident; falling back to x86");
    execute_x86(costs, std::move(on_done));
    return;
  }

  // XRT call overhead (runs on the host but is not core-bound: driver
  // submission + interrupt path), then DMA in, kernel, DMA out.
  sim.schedule_in(costs.xrt_call_overhead, [this, &sim, &device, costs,
                                            start,
                                            cb = std::move(on_done)]() mutable {
    testbed_.pcie().transfer(costs.fpga_input_bytes, [this, &sim, &device,
                                                      costs, start,
                                                      cb = std::move(
                                                          cb)]() mutable {
      if (!device.has_kernel(costs.kernel_name)) {
        // Evicted mid-flight (reconfiguration won the race).
        ++fallbacks_;
        execute_x86(costs,
                    [cb = std::move(cb), start, this](Duration) mutable {
                      cb(testbed_.simulation().now() - start);
                    });
        return;
      }
      device.execute(costs.kernel_name, costs.fpga_items, [this, &sim, costs,
                                                           start,
                                                           cb = std::move(
                                                               cb)]() mutable {
        testbed_.pcie().transfer(costs.fpga_output_bytes,
                                 [&sim, start, cb = std::move(cb)]() mutable {
                                   cb(sim.now() - start);
                                 });
      });
    });
  });
}

}  // namespace xartrek::runtime
