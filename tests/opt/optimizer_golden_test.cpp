// Golden optimizer and VM outputs. The tables below are committed records:
// a change anywhere in the middle end or the VM that moves one optimized
// instruction, one provenance entry, one OptStats counter, one inline-report
// line or one simulated cycle fails here, against outputs recorded from an
// earlier implementation rather than against a second engine of this build.
//
//   Optimizer section — every method of every workload of both suites
//   compiled through one PassManager, under the cold oracle and an all-hot
//   oracle, with the default parameters and the five recorded Table 4
//   genomes. A row digests each method's body, provenance, OptStats and
//   format_inline_report text, in method order.
//
//   ExecStats section — every workload run by a VM (no body memo, two
//   iterations) under Adapt and Opt with the same six genomes, once on the
//   x86 model and once on the PowerPC model, whose small 8-way I-cache
//   misses most. A row digests every iteration's ExecStats and compile
//   counts plus the run totals and the summed OptStats.
//
// Each row also carries two headline numbers, so a failure says roughly
// what moved. A row that no longer matches prints its new value as a line
// of this table; a change that moves outputs on purpose replaces the rows
// it moves and says why in CHANGES.md.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/pipeline.hpp"
#include "runtime/machine.hpp"
#include "support/codec.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

/// Genome 0 is heur::default_params(); 1..5 are bench::recorded_tuned_params().
std::vector<heur::InlineParams> genomes() {
  std::vector<heur::InlineParams> g{heur::default_params()};
  for (const heur::InlineParams& p : bench::recorded_tuned_params()) g.push_back(p);
  return g;
}

struct Row {
  const char* workload;
  const char* mode;  ///< "cold"/"hot" (optimizer) or "adapt"/"opt" (ExecStats)
  int genome;
  std::uint64_t digest;
  std::uint64_t headline1;  ///< sites inlined (optimizer) or total cycles
  std::uint64_t headline2;  ///< optimized instructions (optimizer) or running cycles

  std::string to_source() const {
    std::ostringstream os;
    os << "    {\"" << workload << "\", \"" << mode << "\", " << genome << ", 0x" << std::hex
       << digest << std::dec << "ULL, " << headline1 << ", " << headline2 << "},";
    return os.str();
  }
};

// clang-format off
constexpr Row kOptimizerGolden[] = {
    {"compress", "cold", 0, 0x8c293f544324b937ULL, 27, 661},
    {"compress", "cold", 1, 0xf9569bc734ba6fc6ULL, 0, 407},
    {"compress", "cold", 2, 0x8c293f544324b937ULL, 27, 661},
    {"compress", "cold", 3, 0x74ddfe29670258acULL, 17, 574},
    {"compress", "cold", 4, 0xf9569bc734ba6fc6ULL, 0, 407},
    {"compress", "cold", 5, 0x8c293f544324b937ULL, 27, 661},
    {"compress", "hot", 0, 0x5150ae2c937bd9baULL, 59, 1325},
    {"compress", "hot", 1, 0x86c95288f4a1ff4dULL, 27, 661},
    {"compress", "hot", 2, 0x5150ae2c937bd9baULL, 59, 1325},
    {"compress", "hot", 3, 0x5150ae2c937bd9baULL, 59, 1325},
    {"compress", "hot", 4, 0x86c95288f4a1ff4dULL, 27, 661},
    {"compress", "hot", 5, 0x5150ae2c937bd9baULL, 59, 1325},
    {"jess", "cold", 0, 0x48f1137a0762731bULL, 212, 7277},
    {"jess", "cold", 1, 0xa1b311ca5ead5914ULL, 0, 4909},
    {"jess", "cold", 2, 0xede6752d5ec657ffULL, 161, 6743},
    {"jess", "cold", 3, 0xdaded49450f00ba5ULL, 25, 5212},
    {"jess", "cold", 4, 0xa1b311ca5ead5914ULL, 0, 4909},
    {"jess", "cold", 5, 0xcefe70ca4a8e80ffULL, 69, 5732},
    {"jess", "hot", 0, 0xbd2f578e4bc03857ULL, 350, 9981},
    {"jess", "hot", 1, 0xd568f058610d35c1ULL, 214, 7314},
    {"jess", "hot", 2, 0xbd2f578e4bc03857ULL, 350, 9981},
    {"jess", "hot", 3, 0xbd2f578e4bc03857ULL, 350, 9981},
    {"jess", "hot", 4, 0xd568f058610d35c1ULL, 214, 7314},
    {"jess", "hot", 5, 0xbd2f578e4bc03857ULL, 350, 9981},
    {"db", "cold", 0, 0xc602eeed6f086a93ULL, 102, 3273},
    {"db", "cold", 1, 0xe1cebedc6fcd0857ULL, 0, 2300},
    {"db", "cold", 2, 0x48e286accfcfacd5ULL, 74, 3030},
    {"db", "cold", 3, 0xa5e12a2f84a6b96ULL, 20, 2514},
    {"db", "cold", 4, 0xe1cebedc6fcd0857ULL, 0, 2300},
    {"db", "cold", 5, 0x15cf77fb516a3390ULL, 21, 2527},
    {"db", "hot", 0, 0x677a8d591f4e717bULL, 122, 3605},
    {"db", "hot", 1, 0x38cf5f64c483add8ULL, 111, 3385},
    {"db", "hot", 2, 0x677a8d591f4e717bULL, 122, 3605},
    {"db", "hot", 3, 0x677a8d591f4e717bULL, 122, 3605},
    {"db", "hot", 4, 0x38cf5f64c483add8ULL, 111, 3385},
    {"db", "hot", 5, 0x677a8d591f4e717bULL, 122, 3605},
    {"javac", "cold", 0, 0xd45ba1650fd48492ULL, 121, 4745},
    {"javac", "cold", 1, 0xaee581b604a7e118ULL, 0, 3472},
    {"javac", "cold", 2, 0x446536e018454d53ULL, 76, 4318},
    {"javac", "cold", 3, 0x36c9e67bc6e1996cULL, 10, 3580},
    {"javac", "cold", 4, 0xaee581b604a7e118ULL, 0, 3472},
    {"javac", "cold", 5, 0xcdff2a7a44522b6cULL, 25, 3760},
    {"javac", "hot", 0, 0xbf6017313e5a180bULL, 133, 4967},
    {"javac", "hot", 1, 0x3ad7d60d8fbc3496ULL, 132, 4923},
    {"javac", "hot", 2, 0xbf6017313e5a180bULL, 133, 4967},
    {"javac", "hot", 3, 0xbf6017313e5a180bULL, 133, 4967},
    {"javac", "hot", 4, 0x3ad7d60d8fbc3496ULL, 132, 4923},
    {"javac", "hot", 5, 0xbf6017313e5a180bULL, 133, 4967},
    {"mpegaudio", "cold", 0, 0x157df55b0dab7474ULL, 93, 3241},
    {"mpegaudio", "cold", 1, 0x9c512a1ad0853841ULL, 0, 2426},
    {"mpegaudio", "cold", 2, 0x6852a74ae69979acULL, 66, 3044},
    {"mpegaudio", "cold", 3, 0x83742df7d1d61699ULL, 4, 2473},
    {"mpegaudio", "cold", 4, 0x9c512a1ad0853841ULL, 0, 2426},
    {"mpegaudio", "cold", 5, 0x83c56a73022d37d4ULL, 7, 2531},
    {"mpegaudio", "hot", 0, 0x533c0ad9fb4023e5ULL, 108, 3659},
    {"mpegaudio", "hot", 1, 0x883ac95d8f1dfe53ULL, 97, 3315},
    {"mpegaudio", "hot", 2, 0x533c0ad9fb4023e5ULL, 108, 3659},
    {"mpegaudio", "hot", 3, 0x533c0ad9fb4023e5ULL, 108, 3659},
    {"mpegaudio", "hot", 4, 0x883ac95d8f1dfe53ULL, 97, 3315},
    {"mpegaudio", "hot", 5, 0x533c0ad9fb4023e5ULL, 108, 3659},
    {"raytrace", "cold", 0, 0xd4dbdfdf6c8ba31eULL, 85, 2554},
    {"raytrace", "cold", 1, 0xf81040c1898274b8ULL, 0, 1734},
    {"raytrace", "cold", 2, 0xfbad1bb6dbc0e0a2ULL, 83, 2612},
    {"raytrace", "cold", 3, 0x2d718d402353e42eULL, 19, 1967},
    {"raytrace", "cold", 4, 0xf81040c1898274b8ULL, 0, 1734},
    {"raytrace", "cold", 5, 0xb4390c8d68659860ULL, 32, 2119},
    {"raytrace", "hot", 0, 0x5858231c984fb4b0ULL, 97, 2757},
    {"raytrace", "hot", 1, 0xa106d7eac1969ea4ULL, 87, 2606},
    {"raytrace", "hot", 2, 0x5858231c984fb4b0ULL, 97, 2757},
    {"raytrace", "hot", 3, 0x5858231c984fb4b0ULL, 97, 2757},
    {"raytrace", "hot", 4, 0xa106d7eac1969ea4ULL, 87, 2606},
    {"raytrace", "hot", 5, 0x5858231c984fb4b0ULL, 97, 2757},
    {"jack", "cold", 0, 0x71c2d959519346e7ULL, 115, 3793},
    {"jack", "cold", 1, 0xbc830ebcb4dfb689ULL, 0, 2649},
    {"jack", "cold", 2, 0x8a444ad2323099aeULL, 78, 3461},
    {"jack", "cold", 3, 0x15bd84a3129fb9b9ULL, 12, 2765},
    {"jack", "cold", 4, 0xbc830ebcb4dfb689ULL, 0, 2649},
    {"jack", "cold", 5, 0xbd1345408fe2e32dULL, 26, 2949},
    {"jack", "hot", 0, 0x7cee32b719c2cdfeULL, 180, 5103},
    {"jack", "hot", 1, 0xc2c4afdd368cafe0ULL, 116, 3811},
    {"jack", "hot", 2, 0x7cee32b719c2cdfeULL, 180, 5103},
    {"jack", "hot", 3, 0x7cee32b719c2cdfeULL, 180, 5103},
    {"jack", "hot", 4, 0xc2c4afdd368cafe0ULL, 116, 3811},
    {"jack", "hot", 5, 0x7cee32b719c2cdfeULL, 180, 5103},
    {"antlr", "cold", 0, 0x5c0f35faf846cc9eULL, 697, 14358},
    {"antlr", "cold", 1, 0x84dcdfd73ac1578aULL, 0, 9025},
    {"antlr", "cold", 2, 0xa33bf099475a6ea5ULL, 331, 11699},
    {"antlr", "cold", 3, 0x68ac6022f80cc791ULL, 168, 10377},
    {"antlr", "cold", 4, 0x93a84601fcc5778aULL, 24, 9093},
    {"antlr", "cold", 5, 0x6f5e8b37402dbe17ULL, 236, 10924},
    {"antlr", "hot", 0, 0x47ed25342c921fa0ULL, 1042, 17777},
    {"antlr", "hot", 1, 0xd5c3cb922243b5b6ULL, 979, 17078},
    {"antlr", "hot", 2, 0x47ed25342c921fa0ULL, 1042, 17777},
    {"antlr", "hot", 3, 0x47ed25342c921fa0ULL, 1042, 17777},
    {"antlr", "hot", 4, 0xd5c3cb922243b5b6ULL, 979, 17078},
    {"antlr", "hot", 5, 0x47ed25342c921fa0ULL, 1042, 17777},
    {"fop", "cold", 0, 0xa75c7ddc6ded3f84ULL, 430, 9629},
    {"fop", "cold", 1, 0xdc109f6a5e788504ULL, 0, 6528},
    {"fop", "cold", 2, 0x3a8af6e439f3cbd6ULL, 234, 8376},
    {"fop", "cold", 3, 0x234ba388f1ca2b7dULL, 127, 7495},
    {"fop", "cold", 4, 0x11f65858bc4e92f6ULL, 16, 6562},
    {"fop", "cold", 5, 0x4cd78347dfd2552cULL, 164, 7792},
    {"fop", "hot", 0, 0x97f1a4ade47c07b8ULL, 718, 12493},
    {"fop", "hot", 1, 0xabc672a8506dcc47ULL, 678, 11985},
    {"fop", "hot", 2, 0x97f1a4ade47c07b8ULL, 718, 12493},
    {"fop", "hot", 3, 0x97f1a4ade47c07b8ULL, 718, 12493},
    {"fop", "hot", 4, 0xabc672a8506dcc47ULL, 678, 11985},
    {"fop", "hot", 5, 0x97f1a4ade47c07b8ULL, 718, 12493},
    {"jython", "cold", 0, 0x942e8d6131475716ULL, 453, 8715},
    {"jython", "cold", 1, 0xf8fb8f7295891c34ULL, 0, 5419},
    {"jython", "cold", 2, 0xe0c08b80e1109b1fULL, 313, 7733},
    {"jython", "cold", 3, 0xa4264b9113c696f9ULL, 135, 6322},
    {"jython", "cold", 4, 0x399fba605cf747e2ULL, 21, 5442},
    {"jython", "cold", 5, 0x4438deba2303d830ULL, 209, 6902},
    {"jython", "hot", 0, 0x3a7ec48d00624ce6ULL, 724, 11412},
    {"jython", "hot", 1, 0x6c030a5b75336d53ULL, 615, 10188},
    {"jython", "hot", 2, 0x3a7ec48d00624ce6ULL, 724, 11412},
    {"jython", "hot", 3, 0x3a7ec48d00624ce6ULL, 724, 11412},
    {"jython", "hot", 4, 0x6c030a5b75336d53ULL, 615, 10188},
    {"jython", "hot", 5, 0x3a7ec48d00624ce6ULL, 724, 11412},
    {"pmd", "cold", 0, 0xb819bd30940ee7d5ULL, 453, 11011},
    {"pmd", "cold", 1, 0xefe76afc756f7db1ULL, 0, 7459},
    {"pmd", "cold", 2, 0x1e96ba60f68f201eULL, 275, 9829},
    {"pmd", "cold", 3, 0xebd54de7f30c4f2dULL, 162, 8830},
    {"pmd", "cold", 4, 0x5f6cb8ecf735c745ULL, 36, 7565},
    {"pmd", "cold", 5, 0x3774c49eb500c387ULL, 208, 9254},
    {"pmd", "hot", 0, 0x97fe26be9f263cb1ULL, 789, 14278},
    {"pmd", "hot", 1, 0xbf50fd333d5ebe5ULL, 747, 13786},
    {"pmd", "hot", 2, 0x97fe26be9f263cb1ULL, 789, 14278},
    {"pmd", "hot", 3, 0x97fe26be9f263cb1ULL, 789, 14278},
    {"pmd", "hot", 4, 0xbf50fd333d5ebe5ULL, 747, 13786},
    {"pmd", "hot", 5, 0x97fe26be9f263cb1ULL, 789, 14278},
    {"ps", "cold", 0, 0x27a339c7907341f7ULL, 5, 5825},
    {"ps", "cold", 1, 0x6c52275d96f9ac63ULL, 0, 5740},
    {"ps", "cold", 2, 0x92d4e7e417aeafc5ULL, 119, 8483},
    {"ps", "cold", 3, 0xb7db2dc2ccee0273ULL, 74, 7378},
    {"ps", "cold", 4, 0x6c52275d96f9ac63ULL, 0, 5740},
    {"ps", "cold", 5, 0x56b3f1307fbe50a3ULL, 85, 7668},
    {"ps", "hot", 0, 0xecd019d96d1d0d63ULL, 394, 15114},
    {"ps", "hot", 1, 0xd4f5286ead02040ULL, 158, 9324},
    {"ps", "hot", 2, 0xecd019d96d1d0d63ULL, 394, 15114},
    {"ps", "hot", 3, 0xecd019d96d1d0d63ULL, 394, 15114},
    {"ps", "hot", 4, 0x1b0286405a9a3387ULL, 292, 12486},
    {"ps", "hot", 5, 0xecd019d96d1d0d63ULL, 394, 15114},
    {"ipsixql", "cold", 0, 0xd1f7cde642866d82ULL, 487, 10580},
    {"ipsixql", "cold", 1, 0x7e4c9beb35e3e18ULL, 0, 6674},
    {"ipsixql", "cold", 2, 0x25a213e94e4d439bULL, 264, 8878},
    {"ipsixql", "cold", 3, 0xb177d20afd9eaa65ULL, 136, 7795},
    {"ipsixql", "cold", 4, 0x52c97068cba67f99ULL, 20, 6722},
    {"ipsixql", "cold", 5, 0x85d4c8f5064dcbd4ULL, 184, 8223},
    {"ipsixql", "hot", 0, 0xde1d7791fefde0dcULL, 727, 12957},
    {"ipsixql", "hot", 1, 0x49d620865c3bb3c0ULL, 664, 12203},
    {"ipsixql", "hot", 2, 0xde1d7791fefde0dcULL, 727, 12957},
    {"ipsixql", "hot", 3, 0xde1d7791fefde0dcULL, 727, 12957},
    {"ipsixql", "hot", 4, 0x49d620865c3bb3c0ULL, 664, 12203},
    {"ipsixql", "hot", 5, 0xde1d7791fefde0dcULL, 727, 12957},
    {"pseudojbb", "cold", 0, 0x4a5a69869e7ab0c9ULL, 704, 13809},
    {"pseudojbb", "cold", 1, 0xf5c3623201644733ULL, 0, 9109},
    {"pseudojbb", "cold", 2, 0x979c87fd5dbc1d00ULL, 358, 11797},
    {"pseudojbb", "cold", 3, 0x4ca35e6eb6d15b0cULL, 174, 10335},
    {"pseudojbb", "cold", 4, 0x7d76b186624bf114ULL, 27, 9156},
    {"pseudojbb", "cold", 5, 0xc64e520045fb50d9ULL, 256, 11008},
    {"pseudojbb", "hot", 0, 0x88dc2794c5815c26ULL, 1108, 17635},
    {"pseudojbb", "hot", 1, 0xe221e82674ad9946ULL, 982, 16224},
    {"pseudojbb", "hot", 2, 0x88dc2794c5815c26ULL, 1108, 17635},
    {"pseudojbb", "hot", 3, 0x88dc2794c5815c26ULL, 1108, 17635},
    {"pseudojbb", "hot", 4, 0xe221e82674ad9946ULL, 982, 16224},
    {"pseudojbb", "hot", 5, 0x88dc2794c5815c26ULL, 1108, 17635},
};

constexpr Row kExecGolden[] = {
    {"compress", "adapt", 0, 0xe105773440a38bacULL, 2781844, 2518802},
    {"compress", "adapt", 1, 0x19ed385bcde0711bULL, 2733329, 2121154},
    {"compress", "adapt", 2, 0xe105773440a38bacULL, 2781844, 2518802},
    {"compress", "adapt", 3, 0xe105773440a38bacULL, 2781844, 2518802},
    {"compress", "adapt", 4, 0x19ed385bcde0711bULL, 2733329, 2121154},
    {"compress", "adapt", 5, 0xe105773440a38bacULL, 2781844, 2518802},
    {"compress", "opt", 0, 0x1a2b20485af312ffULL, 2560957, 2116335},
    {"compress", "opt", 1, 0x133c83d158f4fab9ULL, 4235382, 3796501},
    {"compress", "opt", 2, 0x1a2b20485af312ffULL, 2560957, 2116335},
    {"compress", "opt", 3, 0x7215d606af347b43ULL, 2773764, 2340440},
    {"compress", "opt", 4, 0x133c83d158f4fab9ULL, 4235382, 3796501},
    {"compress", "opt", 5, 0x1a2b20485af312ffULL, 2560957, 2116335},
    {"jess", "adapt", 0, 0x41847925d1304d85ULL, 2252748, 704528},
    {"jess", "adapt", 1, 0xe75e2c81d17561f8ULL, 2234617, 723419},
    {"jess", "adapt", 2, 0x41847925d1304d85ULL, 2252748, 704528},
    {"jess", "adapt", 3, 0x9d4d4d2e59ff51b6ULL, 2115324, 817922},
    {"jess", "adapt", 4, 0xe75e2c81d17561f8ULL, 2234617, 723419},
    {"jess", "adapt", 5, 0x2fe79caa09f34452ULL, 2229330, 714634},
    {"jess", "opt", 0, 0x79635889a3b5fc3eULL, 8122387, 671009},
    {"jess", "opt", 1, 0xf7d4945719f5a1c7ULL, 6999786, 1053356},
    {"jess", "opt", 2, 0xa5ab344d095d5848ULL, 7700992, 670868},
    {"jess", "opt", 3, 0x3750443b6230ae38ULL, 6768535, 835198},
    {"jess", "opt", 4, 0xf7d4945719f5a1c7ULL, 6999786, 1053356},
    {"jess", "opt", 5, 0xc194c7092cfc0b0fULL, 6781944, 674591},
    {"db", "adapt", 0, 0x88dc07d96d467863ULL, 2425594, 957178},
    {"db", "adapt", 1, 0x4566f61dc4066918ULL, 2354384, 1036678},
    {"db", "adapt", 2, 0x24e716362c5e5f14ULL, 2395741, 957178},
    {"db", "adapt", 3, 0x5dc513d20473cae8ULL, 2433487, 957178},
    {"db", "adapt", 4, 0x4566f61dc4066918ULL, 2354384, 1036678},
    {"db", "adapt", 5, 0xf7463293e23bb493ULL, 2345920, 1029790},
    {"db", "opt", 0, 0x1cd7a3c92bd49bf3ULL, 4680768, 1178481},
    {"db", "opt", 1, 0xc0459c1f250be8fcULL, 4477970, 1655076},
    {"db", "opt", 2, 0x80b35880a29940fbULL, 4304463, 1031451},
    {"db", "opt", 3, 0x33e7105c02160462ULL, 3964609, 1115121},
    {"db", "opt", 4, 0xc0459c1f250be8fcULL, 4477970, 1655076},
    {"db", "opt", 5, 0x5ac22d8ebcbf4ca2ULL, 3881104, 1031076},
    {"javac", "adapt", 0, 0xf7182b5b39d81d76ULL, 1852592, 669126},
    {"javac", "adapt", 1, 0x965b6cbcca9fcd3aULL, 1729417, 669171},
    {"javac", "adapt", 2, 0xf7182b5b39d81d76ULL, 1852592, 669126},
    {"javac", "adapt", 3, 0x965b6cbcca9fcd3aULL, 1729417, 669171},
    {"javac", "adapt", 4, 0x965b6cbcca9fcd3aULL, 1729417, 669171},
    {"javac", "adapt", 5, 0x8ee1365b0621146eULL, 1824584, 669126},
    {"javac", "opt", 0, 0x708fbed6662e60ddULL, 5796540, 661887},
    {"javac", "opt", 1, 0x15767d717137de31ULL, 5171080, 1068250},
    {"javac", "opt", 2, 0x350346e57f2095bULL, 5543680, 662746},
    {"javac", "opt", 3, 0x18109f819843eab0ULL, 4840114, 743570},
    {"javac", "opt", 4, 0x15767d717137de31ULL, 5171080, 1068250},
    {"javac", "opt", 5, 0xe101aedceb1d6bd7ULL, 4938483, 661370},
    {"mpegaudio", "adapt", 0, 0xe4542201632bd8b9ULL, 6294865, 5643117},
    {"mpegaudio", "adapt", 1, 0x1ce35930c504957fULL, 5684919, 4833910},
    {"mpegaudio", "adapt", 2, 0xe4542201632bd8b9ULL, 6294865, 5643117},
    {"mpegaudio", "adapt", 3, 0xe4542201632bd8b9ULL, 6294865, 5643117},
    {"mpegaudio", "adapt", 4, 0x1ce35930c504957fULL, 5684919, 4833910},
    {"mpegaudio", "adapt", 5, 0xe4542201632bd8b9ULL, 6294865, 5643117},
    {"mpegaudio", "opt", 0, 0x8df162131055c9ecULL, 9625755, 6269392},
    {"mpegaudio", "opt", 1, 0x45e549189ee27924ULL, 9101131, 6335302},
    {"mpegaudio", "opt", 2, 0xe6eb4cb3ae4480bbULL, 7988498, 4790872},
    {"mpegaudio", "opt", 3, 0x2ae363cee5eabb7aULL, 8661340, 5899612},
    {"mpegaudio", "opt", 4, 0x45e549189ee27924ULL, 9101131, 6335302},
    {"mpegaudio", "opt", 5, 0xd975d3b16de58d7dULL, 7562413, 4790722},
    {"raytrace", "adapt", 0, 0x4af46ac8423da175ULL, 3211783, 1908448},
    {"raytrace", "adapt", 1, 0x574e74c151ada058ULL, 3033572, 1978673},
    {"raytrace", "adapt", 2, 0x4af46ac8423da175ULL, 3211783, 1908448},
    {"raytrace", "adapt", 3, 0x4af46ac8423da175ULL, 3211783, 1908448},
    {"raytrace", "adapt", 4, 0x574e74c151ada058ULL, 3033572, 1978673},
    {"raytrace", "adapt", 5, 0x4af46ac8423da175ULL, 3211783, 1908448},
    {"raytrace", "opt", 0, 0xb79682817dddaf57ULL, 4897393, 2274769},
    {"raytrace", "opt", 1, 0xd1ccf23fae437507ULL, 4890592, 2801889},
    {"raytrace", "opt", 2, 0xceeb74db20155867ULL, 4533657, 1904829},
    {"raytrace", "opt", 3, 0x799a5c51fcc5ed89ULL, 4149240, 2046079},
    {"raytrace", "opt", 4, 0xd1ccf23fae437507ULL, 4890592, 2801889},
    {"raytrace", "opt", 5, 0x20cfd95e716c64cfULL, 4101955, 1901814},
    {"jack", "adapt", 0, 0x2528d09eb3b1ddbdULL, 3230393, 1067901},
    {"jack", "adapt", 1, 0x95280c2e81346a6cULL, 2749926, 1279171},
    {"jack", "adapt", 2, 0x212e62942b7c55cULL, 3247485, 1093489},
    {"jack", "adapt", 3, 0x73477eab8d91248ULL, 2975992, 1093534},
    {"jack", "adapt", 4, 0x95280c2e81346a6cULL, 2749926, 1279171},
    {"jack", "adapt", 5, 0x716be82d31231d4fULL, 3096162, 1093534},
    {"jack", "opt", 0, 0x87425da4f378cd8fULL, 5115747, 1248224},
    {"jack", "opt", 1, 0xd3027068438ac199ULL, 4975435, 1877351},
    {"jack", "opt", 2, 0xc1b9d243d26bd195ULL, 4883648, 1248119},
    {"jack", "opt", 3, 0xdf94e7dc3dcc309cULL, 4424487, 1335986},
    {"jack", "opt", 4, 0xd3027068438ac199ULL, 4975435, 1877351},
    {"jack", "opt", 5, 0x11e0c9e9e273fef0ULL, 4429988, 1247774},
    {"antlr", "adapt", 0, 0x503b5bc2325366daULL, 1537138, 324775},
    {"antlr", "adapt", 1, 0xb6f08830d2865548ULL, 1130254, 421580},
    {"antlr", "adapt", 2, 0x7690233517d818aeULL, 1415185, 394228},
    {"antlr", "adapt", 3, 0x8ec60bbb10c31d40ULL, 1280515, 393913},
    {"antlr", "adapt", 4, 0xb6f08830d2865548ULL, 1130254, 421580},
    {"antlr", "adapt", 5, 0xb204e7867f61fe0cULL, 1364768, 398020},
    {"antlr", "opt", 0, 0x2bd07415aa1a07bcULL, 14512065, 227630},
    {"antlr", "opt", 1, 0x169a84d98a846231ULL, 11167138, 383431},
    {"antlr", "opt", 2, 0x69639e026e679286ULL, 11992915, 227878},
    {"antlr", "opt", 3, 0x89ab252e02efff04ULL, 11085452, 264459},
    {"antlr", "opt", 4, 0xcc687fde3042f1f0ULL, 11076036, 341537},
    {"antlr", "opt", 5, 0xdc4f46de7e448692ULL, 11265078, 232973},
    {"fop", "adapt", 0, 0xdece4852465a2a0aULL, 1078032, 258460},
    {"fop", "adapt", 1, 0x2803ae398596de0bULL, 861386, 300569},
    {"fop", "adapt", 2, 0x5da8bc602abaab69ULL, 1056942, 288544},
    {"fop", "adapt", 3, 0xc4fae3ca87bec65dULL, 966081, 288364},
    {"fop", "adapt", 4, 0x2803ae398596de0bULL, 861386, 300569},
    {"fop", "adapt", 5, 0xc120125b8ea81f6bULL, 1012722, 288499},
    {"fop", "opt", 0, 0x80b3b8c023af8d23ULL, 10218113, 177646},
    {"fop", "opt", 1, 0x5395bcce978c8c07ULL, 8038310, 287516},
    {"fop", "opt", 2, 0xc39680848f2bfbeeULL, 8673846, 170313},
    {"fop", "opt", 3, 0x5d4561d9621e8129ULL, 7931532, 191488},
    {"fop", "opt", 4, 0x42bc07a07f837262ULL, 7971634, 272982},
    {"fop", "opt", 5, 0xf232cf305f200da8ULL, 8064729, 171737},
    {"jython", "adapt", 0, 0x40b21e9b963dd768ULL, 2173624, 458303},
    {"jython", "adapt", 1, 0xb35665b52ee63609ULL, 1504339, 708013},
    {"jython", "adapt", 2, 0x735e7ec61f9999c2ULL, 1944249, 618740},
    {"jython", "adapt", 3, 0xdf08816d66a7011cULL, 1745223, 638793},
    {"jython", "adapt", 4, 0xb35665b52ee63609ULL, 1504339, 708013},
    {"jython", "adapt", 5, 0x35d85f7513288646ULL, 1879845, 654955},
    {"jython", "opt", 0, 0xb08b90f05b49d416ULL, 8815782, 324933},
    {"jython", "opt", 1, 0x84f67d77d8cfa3adULL, 7037182, 580694},
    {"jython", "opt", 2, 0xed44c9e94e99aa9eULL, 8080384, 324448},
    {"jython", "opt", 3, 0xc0cb871f54c65df5ULL, 6950666, 379638},
    {"jython", "opt", 4, 0xc924e68a58b97ac1ULL, 6908084, 540659},
    {"jython", "opt", 5, 0xdf7f74ac7d6b49baULL, 7361412, 354104},
    {"pmd", "adapt", 0, 0xb8fc6d99f525b280ULL, 755348, 322857},
    {"pmd", "adapt", 1, 0xef28190437571508ULL, 755348, 345255},
    {"pmd", "adapt", 2, 0x26d3ca28f3c86df3ULL, 755348, 298701},
    {"pmd", "adapt", 3, 0x285e90b142052543ULL, 755348, 343214},
    {"pmd", "adapt", 4, 0xef28190437571508ULL, 755348, 345255},
    {"pmd", "adapt", 5, 0x96687175ac7a63e9ULL, 755348, 321130},
    {"pmd", "opt", 0, 0x4dd02db551267a1cULL, 11259527, 191225},
    {"pmd", "opt", 1, 0xf76819686c3847e7ULL, 9085748, 302233},
    {"pmd", "opt", 2, 0x872e6d3c9c96e03aULL, 9674050, 175803},
    {"pmd", "opt", 3, 0x863f42e9ca982303ULL, 9015459, 198394},
    {"pmd", "opt", 4, 0x44f3e18aa89ea963ULL, 9001557, 280628},
    {"pmd", "opt", 5, 0xdf5ffdaf07bc284ULL, 9122235, 192951},
    {"ps", "adapt", 0, 0x9b1c2bc3ae174ff0ULL, 344701, 199379},
    {"ps", "adapt", 1, 0xa4d221e1ac4f5815ULL, 344701, 199379},
    {"ps", "adapt", 2, 0x3fc3b437385954dfULL, 344701, 199469},
    {"ps", "adapt", 3, 0x1783da17b9f221ceULL, 344701, 199379},
    {"ps", "adapt", 4, 0xa4d221e1ac4f5815ULL, 344701, 199379},
    {"ps", "adapt", 5, 0x8c4bbae63e60330fULL, 344701, 199379},
    {"ps", "opt", 0, 0xdf98a38c2ca0a9dcULL, 6374979, 107590},
    {"ps", "opt", 1, 0xf64f526b8e823d0fULL, 6326374, 108085},
    {"ps", "opt", 2, 0x8e1f18dae6647611ULL, 8070385, 91970},
    {"ps", "opt", 3, 0x5935b10351403417ULL, 6753636, 92855},
    {"ps", "opt", 4, 0xf64f526b8e823d0fULL, 6326374, 108085},
    {"ps", "opt", 5, 0x71718bfe0a0ce21fULL, 7119725, 90225},
    {"ipsixql", "adapt", 0, 0x9fcbbec8cb107938ULL, 1390404, 333465},
    {"ipsixql", "adapt", 1, 0x8f4f4675f788e5d8ULL, 1024483, 401900},
    {"ipsixql", "adapt", 2, 0x5c2af8726d23680aULL, 1333350, 382537},
    {"ipsixql", "adapt", 3, 0x67fa85e97bc74dd3ULL, 1173217, 382059},
    {"ipsixql", "adapt", 4, 0x8f4f4675f788e5d8ULL, 1024483, 401900},
    {"ipsixql", "adapt", 5, 0x3a655791d9b05a7cULL, 1268939, 382254},
    {"ipsixql", "opt", 0, 0xe4a22848ade4c837ULL, 10875543, 223199},
    {"ipsixql", "opt", 1, 0x35009412df5b168eULL, 8356902, 364834},
    {"ipsixql", "opt", 2, 0xa2257ef85485633dULL, 9115978, 220566},
    {"ipsixql", "opt", 3, 0xdb9df5a25464a5abULL, 8288247, 249254},
    {"ipsixql", "opt", 4, 0xce254bd6c49d7c52ULL, 8298182, 358088},
    {"ipsixql", "opt", 5, 0xd23688061214a198ULL, 8525952, 227675},
    {"pseudojbb", "adapt", 0, 0xae7a5e27e4be4a9fULL, 2819454, 817473},
    {"pseudojbb", "adapt", 1, 0x33e0b21a4ef59487ULL, 2234192, 1080594},
    {"pseudojbb", "adapt", 2, 0xcda39bc2d0fdf06eULL, 2770041, 932610},
    {"pseudojbb", "adapt", 3, 0x2251691a269920b2ULL, 2550156, 925259},
    {"pseudojbb", "adapt", 4, 0x33e0b21a4ef59487ULL, 2234192, 1080594},
    {"pseudojbb", "adapt", 5, 0xaf0e1fe4032fa8b1ULL, 2718038, 910903},
    {"pseudojbb", "opt", 0, 0x94e3e77897dd2e46ULL, 14863900, 478284},
    {"pseudojbb", "opt", 1, 0x4c1116cfe4c1df53ULL, 12292188, 1118108},
    {"pseudojbb", "opt", 2, 0x668b71f6d9af517fULL, 12732789, 468571},
    {"pseudojbb", "opt", 3, 0xbac0a08c46ce77fdULL, 11870231, 625998},
    {"pseudojbb", "opt", 4, 0x5f3b69954f78455ULL, 11910655, 840705},
    {"pseudojbb", "opt", 5, 0x5c85c78e08065c70ULL, 12380476, 649197},
};

constexpr Row kExecGoldenPpc[] = {
    {"compress", "adapt", 0, 0x37541fe98f4e4831ULL, 2754340, 2461031},
    {"compress", "adapt", 1, 0xf515d303ee23972cULL, 2700434, 2119958},
    {"compress", "adapt", 2, 0x37541fe98f4e4831ULL, 2754340, 2461031},
    {"compress", "adapt", 3, 0x37541fe98f4e4831ULL, 2754340, 2461031},
    {"compress", "adapt", 4, 0xf515d303ee23972cULL, 2700434, 2119958},
    {"compress", "adapt", 5, 0x37541fe98f4e4831ULL, 2754340, 2461031},
    {"compress", "opt", 0, 0x39805cbdf3bc9e4cULL, 2608301, 2114327},
    {"compress", "opt", 1, 0x9a6ae59ea97bb060ULL, 3833943, 3347624},
    {"compress", "opt", 2, 0x39805cbdf3bc9e4cULL, 2608301, 2114327},
    {"compress", "opt", 3, 0x645e93c05c7cc04cULL, 2755750, 2274779},
    {"compress", "opt", 4, 0x9a6ae59ea97bb060ULL, 3833943, 3347624},
    {"compress", "opt", 5, 0x39805cbdf3bc9e4cULL, 2608301, 2114327},
    {"jess", "adapt", 0, 0x90cecb4a2fd15505ULL, 2240491, 762579},
    {"jess", "adapt", 1, 0x766be93b4657e61cULL, 2187172, 784795},
    {"jess", "adapt", 2, 0x90cecb4a2fd15505ULL, 2240491, 762579},
    {"jess", "adapt", 3, 0xb1b1de38665b2e4bULL, 2087197, 853515},
    {"jess", "adapt", 4, 0x766be93b4657e61cULL, 2187172, 784795},
    {"jess", "adapt", 5, 0x1b483e96d5a115a2ULL, 2213720, 773655},
    {"jess", "opt", 0, 0xe4e65bc1708a4b96ULL, 8994057, 714793},
    {"jess", "opt", 1, 0x52907ff4369eb97bULL, 7594009, 987005},
    {"jess", "opt", 2, 0x1341303dff2991c4ULL, 8523453, 712604},
    {"jess", "opt", 3, 0x6d8cf4570864a59bULL, 7439068, 846663},
    {"jess", "opt", 4, 0x52907ff4369eb97bULL, 7594009, 987005},
    {"jess", "opt", 5, 0x888eff664b254ab0ULL, 7499623, 714073},
    {"db", "adapt", 0, 0xdaf51ea4ca481e28ULL, 2353246, 957342},
    {"db", "adapt", 1, 0x8f17a589bf47f047ULL, 2235492, 1012892},
    {"db", "adapt", 2, 0xfcb9e43e248fd816ULL, 2342520, 957342},
    {"db", "adapt", 3, 0xcb477123d546fbddULL, 2355464, 957342},
    {"db", "adapt", 4, 0x8f17a589bf47f047ULL, 2235492, 1012892},
    {"db", "adapt", 5, 0x7749cfdf3b5c321ULL, 2287165, 1014213},
    {"db", "opt", 0, 0x1c1079aa1e334e17ULL, 5004753, 1113347},
    {"db", "opt", 1, 0x8457725921011141ULL, 4599989, 1463912},
    {"db", "opt", 2, 0x1a2484de99e9f695ULL, 4645185, 1008654},
    {"db", "opt", 3, 0x76d78a20e74ac682ULL, 4233638, 1067812},
    {"db", "opt", 4, 0x8457725921011141ULL, 4599989, 1463912},
    {"db", "opt", 5, 0xe9e9a997740f0b3fULL, 4174213, 1007787},
    {"javac", "adapt", 0, 0xb3b15d9b98ae8663ULL, 1803576, 650374},
    {"javac", "adapt", 1, 0xf2cb928ea7aaec5fULL, 1666715, 650349},
    {"javac", "adapt", 2, 0xb3b15d9b98ae8663ULL, 1803576, 650374},
    {"javac", "adapt", 3, 0xf2cb928ea7aaec5fULL, 1666715, 650349},
    {"javac", "adapt", 4, 0xf2cb928ea7aaec5fULL, 1666715, 650349},
    {"javac", "adapt", 5, 0x2e43d48f4d6df071ULL, 1772457, 650349},
    {"javac", "opt", 0, 0xfa9ff8e1d3b7ae6eULL, 6346439, 641493},
    {"javac", "opt", 1, 0x435f80646d3a056dULL, 5498267, 940387},
    {"javac", "opt", 2, 0xd559eeb66c351d14ULL, 6065656, 642767},
    {"javac", "opt", 3, 0x5b59eb71d700347eULL, 5254609, 703762},
    {"javac", "opt", 4, 0x435f80646d3a056dULL, 5498267, 940387},
    {"javac", "opt", 5, 0x30f8e95bbaf143baULL, 5394938, 643410},
    {"mpegaudio", "adapt", 0, 0x4fd54d18540bc8d6ULL, 6256979, 5527411},
    {"mpegaudio", "adapt", 1, 0x618f0d85a8154a27ULL, 5637234, 4821386},
    {"mpegaudio", "adapt", 2, 0x4fd54d18540bc8d6ULL, 6256979, 5527411},
    {"mpegaudio", "adapt", 3, 0x4fd54d18540bc8d6ULL, 6256979, 5527411},
    {"mpegaudio", "adapt", 4, 0x618f0d85a8154a27ULL, 5637234, 4821386},
    {"mpegaudio", "adapt", 5, 0x4fd54d18540bc8d6ULL, 6256979, 5527411},
    {"mpegaudio", "opt", 0, 0xf26923ce6f6a9468ULL, 9568246, 5838978},
    {"mpegaudio", "opt", 1, 0x6f0d8533a8d4cd82ULL, 8960238, 5887393},
    {"mpegaudio", "opt", 2, 0x175e1ed9bba87ac4ULL, 8335938, 4783244},
    {"mpegaudio", "opt", 3, 0xab789e074a81d065ULL, 8643205, 5574918},
    {"mpegaudio", "opt", 4, 0x6f0d8533a8d4cd82ULL, 8960238, 5887393},
    {"mpegaudio", "opt", 5, 0x9e95cc35d7e409c8ULL, 7862176, 4782818},
    {"raytrace", "adapt", 0, 0xfa61ebf5d53bf186ULL, 3068868, 1828915},
    {"raytrace", "adapt", 1, 0x3aeef800f3e639dfULL, 2870857, 1878940},
    {"raytrace", "adapt", 2, 0xfa61ebf5d53bf186ULL, 3068868, 1828915},
    {"raytrace", "adapt", 3, 0xfa61ebf5d53bf186ULL, 3068868, 1828915},
    {"raytrace", "adapt", 4, 0x3aeef800f3e639dfULL, 2870857, 1878940},
    {"raytrace", "adapt", 5, 0xfa61ebf5d53bf186ULL, 3068868, 1828915},
    {"raytrace", "opt", 0, 0x31d5d00a3e2040a5ULL, 5009378, 2095473},
    {"raytrace", "opt", 1, 0x68c22f5af1afb899ULL, 4802641, 2485240},
    {"raytrace", "opt", 2, 0x3e2beaeb5abc6584ULL, 4746538, 1825941},
    {"raytrace", "opt", 3, 0x5d9e9e2581969ee9ULL, 4262908, 1930090},
    {"raytrace", "opt", 4, 0x68c22f5af1afb899ULL, 4802641, 2485240},
    {"raytrace", "opt", 5, 0xd008caa70e7ce6bULL, 4266476, 1825227},
    {"jack", "adapt", 0, 0xf337527e84979deULL, 3254789, 1068053},
    {"jack", "adapt", 1, 0x7ceda2016a5d2237ULL, 2607929, 1217857},
    {"jack", "adapt", 2, 0xd12bc1db46e6f9faULL, 3235907, 1088370},
    {"jack", "adapt", 3, 0xda2eef69745e4f36ULL, 2934199, 1088370},
    {"jack", "adapt", 4, 0x7ceda2016a5d2237ULL, 2607929, 1217857},
    {"jack", "adapt", 5, 0x732211c206e952a4ULL, 3067696, 1088370},
    {"jack", "opt", 0, 0x23d219a4fd5dc114ULL, 5490333, 1193110},
    {"jack", "opt", 1, 0x9fc823662e2d651fULL, 5096048, 1654107},
    {"jack", "opt", 2, 0x6cedde1d2932f043ULL, 5232879, 1193828},
    {"jack", "opt", 3, 0xc199e020fea0cfe4ULL, 4688390, 1257121},
    {"jack", "opt", 4, 0x9fc823662e2d651fULL, 5096048, 1654107},
    {"jack", "opt", 5, 0xb1ee3b9cc8e3e8deULL, 4728069, 1192700},
    {"antlr", "adapt", 0, 0x148c7d23fa6bd77ULL, 2399093, 625893},
    {"antlr", "adapt", 1, 0xc9d66ff401dfe536ULL, 1948748, 689192},
    {"antlr", "adapt", 2, 0xb8e0345b62fa6d6bULL, 2262895, 835571},
    {"antlr", "adapt", 3, 0xe6561cdfd6e4ccc6ULL, 2121016, 832397},
    {"antlr", "adapt", 4, 0xc9d66ff401dfe536ULL, 1948748, 689192},
    {"antlr", "adapt", 5, 0xc617a4b9bbbf3c73ULL, 2212344, 837344},
    {"antlr", "opt", 0, 0xd422e5ab51cf1c93ULL, 16335320, 463870},
    {"antlr", "opt", 1, 0x169885a6da300cd0ULL, 12920744, 939548},
    {"antlr", "opt", 2, 0x984ca202d12f13eaULL, 13554237, 482470},
    {"antlr", "opt", 3, 0xe981887198df9a74ULL, 12704943, 682114},
    {"antlr", "opt", 4, 0xd44dd9926c4bc6c9ULL, 12727215, 800594},
    {"antlr", "opt", 5, 0x752bc7c95aea0e7cULL, 12870514, 613163},
    {"fop", "adapt", 0, 0x20d7de48ad47f2bbULL, 1589453, 362251},
    {"fop", "adapt", 1, 0xc3b69112ed3f045bULL, 1349801, 422826},
    {"fop", "adapt", 2, 0x11a371be180780cbULL, 1565772, 423238},
    {"fop", "adapt", 3, 0xe4f1fc6706a8b2e6ULL, 1467533, 423238},
    {"fop", "adapt", 4, 0xc3b69112ed3f045bULL, 1349801, 422826},
    {"fop", "adapt", 5, 0xaf7912fb38a46534ULL, 1518626, 423238},
    {"fop", "opt", 0, 0x4e4283109b5ac1bcULL, 11404510, 248683},
    {"fop", "opt", 1, 0x9968bbef28aa88f3ULL, 9098153, 487112},
    {"fop", "opt", 2, 0x6f52ceeef697dec5ULL, 9711857, 263893},
    {"fop", "opt", 3, 0x846a2c54bd2dfc8dULL, 8930663, 331070},
    {"fop", "opt", 4, 0xcefe010a7d793abdULL, 8981711, 428356},
    {"fop", "opt", 5, 0x3be7f9876cda99c1ULL, 9040118, 270585},
    {"jython", "adapt", 0, 0x6c8a98dad6032ecaULL, 3535287, 1344288},
    {"jython", "adapt", 1, 0x443d7df7a871507aULL, 2778417, 1504519},
    {"jython", "adapt", 2, 0x9fcaf0d7887abb1ULL, 3275063, 1662489},
    {"jython", "adapt", 3, 0x6f8cbf848a43bfdeULL, 3087799, 1659535},
    {"jython", "adapt", 4, 0x443d7df7a871507aULL, 2778417, 1504519},
    {"jython", "adapt", 5, 0xe339db4410f4b815ULL, 3199540, 1651506},
    {"jython", "opt", 0, 0xdc8cbe6b675f12d5ULL, 10568293, 1134116},
    {"jython", "opt", 1, 0x6609aca707f4b85cULL, 8805953, 1632459},
    {"jython", "opt", 2, 0xb57326db7b803a03ULL, 9783528, 1165879},
    {"jython", "opt", 3, 0xa485587c801321b8ULL, 8670573, 1369485},
    {"jython", "opt", 4, 0xfba9a11d3338999bULL, 8592943, 1518280},
    {"jython", "opt", 5, 0xc70cdfea892fb081ULL, 8990953, 1205107},
    {"pmd", "adapt", 0, 0xc034dedf64683b0aULL, 1331862, 505793},
    {"pmd", "adapt", 1, 0x2c63cee556eb94f0ULL, 1331862, 482603},
    {"pmd", "adapt", 2, 0xd65e61af66aeb136ULL, 1331862, 433483},
    {"pmd", "adapt", 3, 0xff57e45902a27c06ULL, 1331862, 522709},
    {"pmd", "adapt", 4, 0x2c63cee556eb94f0ULL, 1331862, 482603},
    {"pmd", "adapt", 5, 0xf009a70e4c4163abULL, 1331862, 506466},
    {"pmd", "opt", 0, 0x290b51778d05f472ULL, 12607368, 309557},
    {"pmd", "opt", 1, 0x98960d5e310edc4ULL, 10336365, 577684},
    {"pmd", "opt", 2, 0x16f8c7c910877af7ULL, 10864985, 311825},
    {"pmd", "opt", 3, 0x4575dcfd03a40d98ULL, 10112078, 315691},
    {"pmd", "opt", 4, 0x47b57c9c24f883fbULL, 10170709, 481364},
    {"pmd", "opt", 5, 0x1e09c9f09bb8b45dULL, 10266439, 345361},
    {"ps", "adapt", 0, 0x81f8931389cf9ee6ULL, 408426, 238946},
    {"ps", "adapt", 1, 0x6e7a96e8cf41efd3ULL, 408426, 238946},
    {"ps", "adapt", 2, 0xb64385b415dcb778ULL, 408426, 239096},
    {"ps", "adapt", 3, 0xd09d4e12510de92cULL, 408426, 239121},
    {"ps", "adapt", 4, 0x6e7a96e8cf41efd3ULL, 408426, 238946},
    {"ps", "adapt", 5, 0x900074967cd2418dULL, 408426, 238971},
    {"ps", "opt", 0, 0xf7de2575a564cc50ULL, 7121730, 159069},
    {"ps", "opt", 1, 0x64a8bd5b84b74d1bULL, 7070702, 162671},
    {"ps", "opt", 2, 0xeeff88a7bd6ccb45ULL, 9013036, 149031},
    {"ps", "opt", 3, 0x3cd58a0b7a6da404ULL, 7548051, 148086},
    {"ps", "opt", 4, 0x64a8bd5b84b74d1bULL, 7070702, 162671},
    {"ps", "opt", 5, 0xf3d9caadcad997ebULL, 7956900, 147197},
    {"ipsixql", "adapt", 0, 0x75a95764a3f2f35aULL, 2191447, 651681},
    {"ipsixql", "adapt", 1, 0xc48a16a48283fa87ULL, 1779153, 664967},
    {"ipsixql", "adapt", 2, 0xa4c7cec7318c961fULL, 2125730, 803865},
    {"ipsixql", "adapt", 3, 0xaa2846fbfc8377fcULL, 1966420, 802087},
    {"ipsixql", "adapt", 4, 0xc48a16a48283fa87ULL, 1779153, 664967},
    {"ipsixql", "adapt", 5, 0xc40bb8b0ecdaebc2ULL, 2060751, 803743},
    {"ipsixql", "opt", 0, 0xfe71a8e872d26644ULL, 12358955, 523165},
    {"ipsixql", "opt", 1, 0xee9b128e121c83bULL, 9685834, 806582},
    {"ipsixql", "opt", 2, 0xf8a7271b677adf46ULL, 10407975, 524584},
    {"ipsixql", "opt", 3, 0x8ce6d07582ffbd42ULL, 9596824, 665007},
    {"ipsixql", "opt", 4, 0xa54154134fd7ec96ULL, 9562719, 740890},
    {"ipsixql", "opt", 5, 0xd496135440787bf8ULL, 9793520, 573560},
    {"pseudojbb", "adapt", 0, 0x348c82e0864125f1ULL, 4482854, 2054254},
    {"pseudojbb", "adapt", 1, 0x6b9981e932194981ULL, 3789022, 2111821},
    {"pseudojbb", "adapt", 2, 0x9cbb671e44900e4bULL, 4418818, 2280610},
    {"pseudojbb", "adapt", 3, 0x718e5c4868d5bcddULL, 4209832, 2272644},
    {"pseudojbb", "adapt", 4, 0x6b9981e932194981ULL, 3789022, 2111821},
    {"pseudojbb", "adapt", 5, 0x9b49bf8c8aea3aeeULL, 4329509, 2281090},
    {"pseudojbb", "opt", 0, 0x62d5f1ecdbc955bcULL, 17734473, 1750505},
    {"pseudojbb", "opt", 1, 0x4f23851933614089ULL, 14753613, 2338367},
    {"pseudojbb", "opt", 2, 0x56e75a2d056ae72ULL, 15422833, 1795970},
    {"pseudojbb", "opt", 3, 0x94394a4f71674aa4ULL, 14601066, 2107524},
    {"pseudojbb", "opt", 4, 0x2c4c28ff6d2677f3ULL, 14481890, 2182345},
    {"pseudojbb", "opt", 5, 0x23c3e554c6c98f4bULL, 14928687, 1894031},
};
// clang-format on

std::uint64_t mix(std::uint64_t h, std::int64_t v) {
  return codec::fnv1a_u64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t digest_inline_stats(std::uint64_t h, const opt::InlineStats& s) {
  h = mix(h, static_cast<std::int64_t>(s.sites_considered));
  h = mix(h, static_cast<std::int64_t>(s.sites_inlined));
  h = mix(h, static_cast<std::int64_t>(s.sites_partially_inlined));
  h = mix(h, static_cast<std::int64_t>(s.sites_refused_by_heuristic));
  h = mix(h, static_cast<std::int64_t>(s.sites_refused_structural));
  h = mix(h, s.max_depth_reached);
  h = mix(h, s.size_before_words);
  return mix(h, s.size_after_words);
}

std::uint64_t digest_opt_stats(std::uint64_t h, const opt::OptStats& s) {
  h = digest_inline_stats(h, s.inline_stats);
  for (const std::size_t v :
       {s.folds, s.copyprops, s.dead_stores, s.branch_simplifications,
        s.algebraic_simplifications, s.compare_fusions, s.tail_calls_eliminated,
        s.unreachable_removed, s.instructions_compacted}) {
    h = mix(h, static_cast<std::int64_t>(v));
  }
  return mix(h, s.iterations);
}

Row optimizer_row(const wl::Workload& w, bool hot, int genome, const heur::InlineParams& params) {
  const heur::JikesHeuristic heuristic(params);
  const opt::SiteOracle oracle =
      hot ? opt::SiteOracle([](bc::MethodId, std::int32_t) { return opt::SiteProfile{true, 1000}; })
          : opt::SiteOracle(opt::cold_site);
  opt::PassManager pm(w.program, heuristic, oracle, opt::PipelineDesc::standard(),
                      vm::VmConfig{}.inline_limits);
  Row row{w.name.c_str(), hot ? "hot" : "cold", genome, codec::kFnv1aBasis, 0, 0};
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(w.program.num_methods()); ++id) {
    opt::InlineReport report;
    const opt::OptimizeResult r = pm.run(id, &report);
    std::uint64_t& h = row.digest;
    h = mix(h, id);
    h = mix(h, r.body.method.num_locals());
    for (const bc::Instruction& insn : r.body.method.code()) {
      h = mix(h, static_cast<std::int64_t>(insn.op));
      h = mix(h, insn.a);
      h = mix(h, insn.b);
    }
    for (const opt::InstrMeta& m : r.body.meta) {
      h = mix(h, m.depth);
      h = mix(h, m.origin_method);
      h = mix(h, m.origin_pc);
      h = mix(h, m.chain ? static_cast<std::int64_t>(m.chain->size()) : -1);
      if (m.chain) {
        for (const bc::MethodId c : *m.chain) h = mix(h, c);
      }
    }
    h = digest_opt_stats(h, r.stats);
    h = codec::fnv1a(opt::format_inline_report(w.program, report), h);
    row.headline1 += r.stats.inline_stats.sites_inlined;
    row.headline2 += r.body.method.size();
  }
  return row;
}

Row exec_row(const wl::Workload& w, const rt::MachineModel& model, vm::Scenario scenario,
             int genome, const heur::InlineParams& params) {
  heur::JikesHeuristic heuristic(params);
  vm::VmConfig config;
  config.scenario = scenario;
  vm::VirtualMachine machine(w.program, model, heuristic, config);
  const vm::RunResult r = machine.run(2);
  Row row{w.name.c_str(), scenario == vm::Scenario::kAdapt ? "adapt" : "opt", genome,
          codec::kFnv1aBasis, r.total_cycles, r.running_cycles};
  std::uint64_t& h = row.digest;
  for (const vm::IterationStats& it : r.iterations) {
    const rt::ExecStats& e = it.exec;
    for (const std::uint64_t v : {e.cycles, e.instructions, e.calls, e.osr_transitions,
                                  e.icache_probes, e.icache_misses}) {
      h = codec::fnv1a_u64(h, v);
    }
    h = mix(h, static_cast<std::int64_t>(e.max_frame_depth));
    h = mix(h, e.exit_value);
    h = codec::fnv1a_u64(h, it.compile_cycles);
    h = mix(h, static_cast<std::int64_t>(it.baseline_compiles));
    h = mix(h, static_cast<std::int64_t>(it.opt_compiles));
  }
  for (const std::uint64_t v : {r.total_cycles, r.running_cycles, r.compile_cycles_all}) {
    h = codec::fnv1a_u64(h, v);
  }
  for (const std::size_t v : {r.methods_baseline_compiled, r.methods_opt_compiled,
                              r.recompilations, r.code_words_emitted}) {
    h = mix(h, static_cast<std::int64_t>(v));
  }
  h = digest_opt_stats(h, r.opt_stats);
  return row;
}

/// Compares `computed` with the rows of `table` for the same workloads,
/// printing every missing or moved row as its new source line.
template <std::size_t N>
void expect_rows(const Row (&table)[N], const std::vector<Row>& computed) {
  std::size_t matched = 0;
  for (const Row& got : computed) {
    const Row* want = nullptr;
    for (const Row& r : table) {
      if (std::string(r.workload) == got.workload && std::string(r.mode) == got.mode &&
          r.genome == got.genome) {
        want = &r;
      }
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row; new value:\n" << got.to_source();
      continue;
    }
    ++matched;
    EXPECT_TRUE(want->digest == got.digest && want->headline1 == got.headline1 &&
                want->headline2 == got.headline2)
        << "golden row moved; was:\n"
        << want->to_source() << "\nnew value:\n"
        << got.to_source();
  }
  EXPECT_EQ(matched, computed.size());
}

void check_optimizer(const std::string& suite) {
  const std::vector<heur::InlineParams> params = genomes();
  const std::vector<wl::Workload> workloads = wl::make_suite(suite);
  std::vector<Row> rows;
  for (const wl::Workload& w : workloads) {
    for (const bool hot : {false, true}) {
      for (std::size_t g = 0; g < params.size(); ++g) {
        rows.push_back(optimizer_row(w, hot, static_cast<int>(g), params[g]));
      }
    }
  }
  expect_rows(kOptimizerGolden, rows);
}

template <std::size_t N>
void check_exec(const std::string& suite, const rt::MachineModel& model,
                const Row (&table)[N]) {
  const std::vector<heur::InlineParams> params = genomes();
  const std::vector<wl::Workload> workloads = wl::make_suite(suite);
  std::vector<Row> rows;
  for (const wl::Workload& w : workloads) {
    for (const vm::Scenario s : {vm::Scenario::kAdapt, vm::Scenario::kOpt}) {
      for (std::size_t g = 0; g < params.size(); ++g) {
        rows.push_back(exec_row(w, model, s, static_cast<int>(g), params[g]));
      }
    }
  }
  expect_rows(table, rows);
}

TEST(OptimizerGolden, Specjvm98) { check_optimizer("specjvm98"); }
TEST(OptimizerGolden, DacapoJbb) { check_optimizer("dacapo+jbb"); }
TEST(ExecStatsGolden, Specjvm98) { check_exec("specjvm98", rt::pentium4_model(), kExecGolden); }
TEST(ExecStatsGolden, DacapoJbb) { check_exec("dacapo+jbb", rt::pentium4_model(), kExecGolden); }
TEST(ExecStatsGolden, Specjvm98Ppc) {
  check_exec("specjvm98", rt::ppc_g4_model(), kExecGoldenPpc);
}
TEST(ExecStatsGolden, DacapoJbbPpc) {
  check_exec("dacapo+jbb", rt::ppc_g4_model(), kExecGoldenPpc);
}

}  // namespace
}  // namespace ith
