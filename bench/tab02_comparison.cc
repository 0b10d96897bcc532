/**
 * @file
 * Table 2 reproduction: comparison to state-of-the-art covert channels
 * exploiting throttling effects of current-management mechanisms, with
 * the bandwidth column measured on this implementation.
 */

#include <cstdio>

#include "baselines/netspectre.hh"
#include "baselines/turbocc.hh"
#include "bench_util.hh"
#include "channels/cores_channel.hh"
#include "common/table.hh"

using namespace ich;

int
main()
{
    bench::banner("Table 2", "comparison to NetSpectre and TurboCC");

    ChannelConfig cfg;
    cfg.chip = presets::cannonLake();
    cfg.seed = 123;

    NetSpectre ns(cfg);
    double ns_bps = ns.ratedThroughputBps();

    TurboCC tc(presets::cannonLake(), 1);
    double tc_bps = tc.ratedThroughputBps();

    IccCoresCovert ich(cfg);
    double ich_bps = ich.ratedThroughputBps();

    Table t({"Proposal", "SameCore", "CrossSMT", "CrossCore", "BW",
             "User/Kernel", "Mechanism", "Turbo-indep", "RootCause",
             "Mitigations"});
    t.addRow({"NetSpectre [91]", "yes", "no", "no",
              Table::fmt(ns_bps / 1000.0, 1) + " kb/s", "U",
              "single-level thread throttling", "yes", "no", "no"});
    t.addRow({"TurboCC [57]", "no", "no", "yes",
              Table::fmt(tc_bps, 0) + " b/s", "K",
              "turbo frequency change", "no", "no", "no"});
    t.addRow({"IChannels", "yes", "yes", "yes",
              Table::fmt(ich_bps / 1000.0, 1) + " kb/s", "U",
              "multi-level thread/SMT/core (VR) throttling", "yes",
              "yes", "yes"});
    std::printf("%s\n", t.toString().c_str());
    std::printf("paper row values: NetSpectre 1.5 kb/s, TurboCC 61 b/s, "
                "IChannels 3 kb/s.\n");
    return 0;
}
