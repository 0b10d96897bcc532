#include "cpu/core.hh"

#include <algorithm>

#include "chip/chip.hh"
#include "isa/inst_class.hh"

namespace ich
{

Core::Core(Chip &chip, CoreId id, const CoreConfig &cfg)
    : id_(id), cfg_(cfg), throttle_(cfg.throttle),
      avxGate_(chip.eventQueue(), chip.rng(), cfg.avxGate)
{
    for (int i = 0; i < cfg_.smtThreads; ++i)
        threads_.push_back(std::make_unique<HwThread>(*this, chip, id_, i));
}

void
Core::touch()
{
    for (auto &t : threads_)
        t->accrue();
}

void
Core::refresh()
{
    for (auto &t : threads_)
        t->refresh();
}

void
Core::materializePending()
{
    for (auto &t : threads_)
        t->materializePending();
}

CoreActivity
Core::activity() const
{
    CoreActivity act;
    double max_delta = 0.0;
    for (const auto &t : threads_) {
        if (auto cls = t->currentClass()) {
            const InstTraits &tr = traits(*cls);
            act.active = true;
            max_delta = std::max(max_delta, tr.deltaCdynNf);
            act.activeGbLevel =
                std::max(act.activeGbLevel, tr.guardbandLevel);
        }
    }
    if (act.active)
        act.cdynNf = cfg_.cdynBaseNf + max_delta;
    return act;
}

} // namespace ich
