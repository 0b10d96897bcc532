#include "chip/presets.hh"

namespace ich
{
namespace presets
{

namespace
{

std::vector<double>
freqBins(double min_ghz, double max_ghz)
{
    std::vector<double> bins;
    for (double f = min_ghz; f <= max_ghz + 1e-9; f += 0.1)
        bins.push_back(f);
    return bins;
}

} // namespace

ChipConfig
cannonLake()
{
    ChipConfig cfg;
    cfg.name = "cannonlake-i3-8121U";
    cfg.numCores = 2;
    cfg.tscGhz = 2.2;

    cfg.core.smtThreads = 2;
    cfg.core.cdynBaseNf = 2.4;
    cfg.core.avxGate.present = true;

    cfg.pmu.vf = VfCurve{0.55, 0.10};
    cfg.pmu.rllOhm = 1.9e-3;
    cfg.pmu.limits = ElectricalLimits{1.15, 29.0};
    cfg.pmu.leakagePerCoreAmps = 1.0;
    cfg.pmu.pstate.binsGhz = freqBins(0.8, 3.2);
    cfg.pmu.pstate.licenseMaxGhz = {3.2, 2.6, 1.8};
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 2.2;
    cfg.pmu.vr = VrConfig::motherboard();
    cfg.pmu.vr.commandJitter = fromNanoseconds(200);
    return cfg;
}

ChipConfig
coffeeLake()
{
    ChipConfig cfg;
    cfg.name = "coffeelake-i7-9700K";
    cfg.numCores = 8;
    cfg.tscGhz = 3.6;

    cfg.core.smtThreads = 1; // i7-9700K has no SMT (§6.1)
    cfg.core.cdynBaseNf = 2.4;
    cfg.core.avxGate.present = true;

    cfg.pmu.vf = VfCurve{0.46, 0.16};
    cfg.pmu.rllOhm = 1.9e-3;
    cfg.pmu.limits = ElectricalLimits{1.27, 100.0};
    cfg.pmu.leakagePerCoreAmps = 1.0;
    cfg.pmu.pstate.binsGhz = freqBins(0.8, 4.9);
    cfg.pmu.pstate.licenseMaxGhz = {4.9, 4.3, 4.0};
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 3.6;
    cfg.pmu.vr = VrConfig::motherboard();
    cfg.pmu.vr.commandJitter = fromNanoseconds(200);
    return cfg;
}

ChipConfig
haswell()
{
    ChipConfig cfg;
    cfg.name = "haswell-i7-4770K";
    cfg.numCores = 4;
    cfg.tscGhz = 3.5;

    cfg.core.smtThreads = 2;
    cfg.core.cdynBaseNf = 2.6;
    cfg.core.avxGate.present = false; // AVX PG introduced in Skylake

    cfg.pmu.vf = VfCurve{0.50, 0.12};
    cfg.pmu.rllOhm = 1.9e-3;
    cfg.pmu.limits = ElectricalLimits{1.30, 90.0};
    cfg.pmu.leakagePerCoreAmps = 1.2;
    cfg.pmu.pstate.binsGhz = freqBins(0.8, 3.9);
    cfg.pmu.pstate.licenseMaxGhz = {3.9, 3.7, 3.5};
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 3.5;
    cfg.pmu.vr = VrConfig::integrated(); // FIVR
    cfg.pmu.vr.commandJitter = fromNanoseconds(150);
    return cfg;
}

ChipConfig
skylakeServer()
{
    ChipConfig cfg;
    cfg.name = "skylake-server-xeon";
    cfg.numCores = 16;
    cfg.tscGhz = 2.1;

    cfg.core.smtThreads = 2;
    cfg.core.cdynBaseNf = 2.8;
    cfg.core.avxGate.present = true; // AVX PG since Skylake

    cfg.pmu.vf = VfCurve{0.52, 0.11};
    cfg.pmu.rllOhm = 1.0e-3; // stiffer server PDN
    cfg.pmu.limits = ElectricalLimits{1.25, 400.0};
    cfg.pmu.leakagePerCoreAmps = 1.5;
    cfg.pmu.pstate.binsGhz = freqBins(0.8, 3.7);
    cfg.pmu.pstate.licenseMaxGhz = {3.7, 3.1, 2.5};
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 2.1;
    cfg.pmu.vr = VrConfig::integrated(); // FIVR on Skylake-SP
    cfg.pmu.vr.commandJitter = fromNanoseconds(150);
    return cfg;
}

ChipConfig
zenLike()
{
    ChipConfig cfg;
    cfg.name = "zen-like-amd";
    cfg.numCores = 8;
    cfg.tscGhz = 3.6;

    cfg.core.smtThreads = 2;
    cfg.core.cdynBaseNf = 2.5;
    cfg.core.avxGate.present = true;

    cfg.pmu.vf = VfCurve{0.50, 0.13};
    cfg.pmu.rllOhm = 1.6e-3;
    cfg.pmu.limits = ElectricalLimits{1.30, 140.0};
    cfg.pmu.leakagePerCoreAmps = 1.0;
    cfg.pmu.pstate.binsGhz = freqBins(0.8, 4.4);
    cfg.pmu.pstate.licenseMaxGhz = {4.4, 4.4, 4.4}; // no AVX licenses
    cfg.pmu.governor.policy = GovernorPolicy::kUserspace;
    cfg.pmu.governor.userspaceGhz = 3.6;
    // The defining difference: per-core LDO voltage domains.
    cfg.pmu.perCoreVr = true;
    cfg.pmu.vr = VrConfig::lowDropout();
    cfg.pmu.vr.commandJitter = fromNanoseconds(20);
    return cfg;
}

bool
hasAvx512(const ChipConfig &cfg)
{
    return cfg.name.rfind("cannonlake", 0) == 0 ||
           cfg.name.rfind("skylake-server", 0) == 0;
}

} // namespace presets
} // namespace ich
