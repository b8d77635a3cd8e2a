/**
 * @file
 * Test helper: ad-hoc custom control for a SimSession. FnStage runs a
 * callable as a named control stage; fnPipeline() wraps one in a
 * single-stage pipeline ready for H2PSystem::startSession().
 */

#ifndef H2P_TESTS_SUPPORT_FN_STAGE_H_
#define H2P_TESTS_SUPPORT_FN_STAGE_H_

#include <functional>
#include <memory>
#include <utility>

#include "control/control_stage.h"

namespace h2p {
namespace test {

/** A stateless control stage that runs a callable. */
class FnStage : public control::ControlStage
{
  public:
    using Fn = std::function<void(const control::ControlContext &,
                                  sched::ScheduleDecision &)>;

    explicit FnStage(Fn fn) : fn_(std::move(fn)) {}

    const char *name() const override { return "fn"; }

    void apply(const control::ControlContext &ctx,
               sched::ScheduleDecision &decision) override
    {
        fn_(ctx, decision);
    }

  private:
    Fn fn_;
};

/** A one-stage "custom" pipeline running @p fn. */
inline std::unique_ptr<control::ControlPipeline>
fnPipeline(FnStage::Fn fn)
{
    auto p = std::make_unique<control::ControlPipeline>("custom");
    p->add(std::make_unique<FnStage>(std::move(fn)));
    return p;
}

} // namespace test
} // namespace h2p

#endif // H2P_TESTS_SUPPORT_FN_STAGE_H_
