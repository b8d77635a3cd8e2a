#include "control/control_stage.h"

#include "util/error.h"

namespace h2p {
namespace control {

ControlPipeline::ControlPipeline(std::string name)
    : name_(std::move(name))
{
}

ControlPipeline &
ControlPipeline::add(std::unique_ptr<ControlStage> stage)
{
    H2P_ASSERT(stage != nullptr, "null control stage");
    expect(find(stage->name()) == nullptr, "control pipeline `", name_,
           "' already has a stage named `", stage->name(),
           "'; stage names key checkpointed state and must be unique");
    stages_.push_back(std::move(stage));
    return *this;
}

ControlStage *
ControlPipeline::find(const std::string &stage_name)
{
    for (const auto &s : stages_)
        if (stage_name == s->name())
            return s.get();
    return nullptr;
}

const ControlStage *
ControlPipeline::find(const std::string &stage_name) const
{
    return const_cast<ControlPipeline *>(this)->find(stage_name);
}

void
ControlPipeline::run(const ControlContext &ctx,
                     sched::ScheduleDecision &out)
{
    H2P_ASSERT(ctx.dc != nullptr && ctx.utils != nullptr,
               "control context incomplete");
    expect(!stages_.empty(), "control pipeline `", name_,
           "' has no stages");

    out.utils = *ctx.utils;
    out.settings.clear();

    for (const auto &stage : stages_)
        stage->apply(ctx, out);

    expect(out.utils.size() == ctx.dc->numServers(),
           "control pipeline `", name_, "' produced ",
           out.utils.size(), " utilizations; datacenter has ",
           ctx.dc->numServers(), " servers");
    expect(out.settings.size() == ctx.dc->numCirculations(),
           "control pipeline `", name_, "' produced ",
           out.settings.size(), " cooling settings; datacenter has ",
           ctx.dc->numCirculations(), " circulations");
}

void
ControlPipeline::observe(const ControlContext &ctx,
                         const cluster::DatacenterState &state)
{
    for (const auto &stage : stages_)
        stage->observe(ctx, state);
}

std::vector<std::pair<std::string, std::string>>
ControlPipeline::captureState()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &stage : stages_) {
        if (!stage->stateful())
            continue;
        util::ByteWriter w;
        util::Archive ar(w);
        stage->visitState(ar);
        out.emplace_back(stage->name(), w.data());
    }
    return out;
}

void
ControlPipeline::applyState(
    const std::vector<std::pair<std::string, std::string>> &state)
{
    for (const auto &entry : state) {
        ControlStage *stage = find(entry.first);
        expect(stage != nullptr, "checkpoint carries state for "
               "control stage `", entry.first, "', which pipeline `",
               name_, "' does not have; resume with a matching "
               "pipeline");
        util::ByteReader r(entry.second, 0, entry.second.size());
        util::Archive ar(r);
        stage->visitState(ar);
        expect(r.exhausted(), "control stage `", entry.first,
               "' did not consume its checkpointed state exactly; "
               "the stage implementation changed shape");
    }
}

} // namespace control
} // namespace h2p
