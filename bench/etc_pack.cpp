// Converter between the textual artifacts (CSV ETC matrices) and the
// binary instance format the streaming engine consumes, plus a generator
// for large perturbation batches that would be wasteful to ship as text.
//
//   etc_pack pack   --csv IN.csv --out OUT.rbi
//       Each application row of the ETC matrix becomes one instance
//       (dim = machine count). The round trip back through `unpack` is
//       %.17g bit-identical.
//   etc_pack unpack --in IN.rbi --csv OUT.csv
//       Inverse of pack: instances become application rows.
//   etc_pack gen    --dim D --instances N --out OUT.rbi
//                   [--seed 2003] [--base-seed 6] [--spread 0.01]
//       Streams N perturbations of the perf-bench origin (base origin
//       uniform(0.5, 1.5) from Pcg32(base-seed), per-instance
//       multiplicative jitter uniform(1-spread, 1+spread) from
//       Pcg32(seed, i)) without ever holding the batch in memory.
//   etc_pack info   --in IN.rbi
//       Prints the validated header shape and payload size plus the raw
//       framing fields (version, flags in hex, reserved bytes). A file
//       with trailing bytes after the declared payload is rejected with
//       the categorized trailing-bytes diagnostic, not described.
//
// Exit code 0 on success; 1 on usage or I/O errors (printed); 2 on an
// unknown option, a malformed option value, or input the library rejects
// as malformed.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "robust/core/instance_file.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/util/args.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/mmap_file.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;

int usage() {
  std::cerr
      << "usage:\n"
         "  etc_pack pack   --csv IN.csv --out OUT.rbi\n"
         "  etc_pack unpack --in IN.rbi --csv OUT.csv\n"
         "  etc_pack gen    --dim D --instances N --out OUT.rbi\n"
         "                  [--seed 2003] [--base-seed 6] [--spread 0.01]\n"
         "  etc_pack info   --in IN.rbi\n";
  return 1;
}

std::ofstream openBinaryOut(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    throw std::runtime_error("etc_pack: cannot open '" + path +
                             "' for writing");
  }
  return out;
}

int runPack(const ArgParser& args) {
  const std::string csvPath = args.getString("csv", "");
  const std::string outPath = args.getString("out", "");
  args.rejectUnknownOptions("etc_pack");
  if (csvPath.empty() || outPath.empty()) return usage();

  std::ifstream in(csvPath);
  if (!in.is_open()) {
    throw std::runtime_error("etc_pack: cannot open '" + csvPath + "'");
  }
  const sched::EtcMatrix etc = sched::loadEtcCsv(in, csvPath);

  std::ofstream out = openBinaryOut(outPath);
  core::InstanceFileWriter writer(out, etc.machines(), {}, csvPath);
  std::vector<double> row(etc.machines());
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      row[j] = etc(i, j);
    }
    writer.append(row);
  }
  writer.finish();
  std::cout << "packed " << etc.apps() << " x " << etc.machines() << " -> "
            << outPath << '\n';
  return 0;
}

int runUnpack(const ArgParser& args) {
  const std::string inPath = args.getString("in", "");
  const std::string csvPath = args.getString("csv", "");
  args.rejectUnknownOptions("etc_pack");
  if (inPath.empty() || csvPath.empty()) return usage();

  // Materialize through the validated loader (payload finiteness included)
  // rather than the raw reader: unpack output feeds text pipelines that
  // assume clean values.
  const util::MmapFile file(inPath);
  util::MmapFile::View view;
  file.view(0, static_cast<std::size_t>(file.size()), view);
  const util::Diagnostics diag(inPath);
  const core::InstanceData data = core::loadInstanceData(
      {reinterpret_cast<const std::byte*>(view.data()), view.size()}, diag);

  sched::EtcMatrix etc(static_cast<std::size_t>(data.header.instances),
                       static_cast<std::size_t>(data.header.dim));
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      etc(i, j) = data.values[i * etc.machines() + j];
    }
  }
  std::ofstream out(csvPath, std::ios::trunc);
  if (!out.is_open()) {
    throw std::runtime_error("etc_pack: cannot open '" + csvPath +
                             "' for writing");
  }
  sched::saveEtcCsv(etc, out);
  std::cout << "unpacked " << etc.apps() << " x " << etc.machines() << " -> "
            << csvPath << '\n';
  return 0;
}

int runGen(const ArgParser& args) {
  const auto dim = static_cast<std::uint64_t>(args.getInt("dim", 0));
  const auto instances =
      static_cast<std::uint64_t>(args.getInt("instances", 0));
  const std::string outPath = args.getString("out", "");
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const auto baseSeed =
      static_cast<std::uint64_t>(args.getInt("base-seed", 6));
  const double spread = args.getDouble("spread", 0.01);
  args.rejectUnknownOptions("etc_pack");
  if (dim == 0 || instances == 0 || outPath.empty()) return usage();

  // The perf-bench origin: the same uniform(0.5, 1.5) draw stream
  // stream_throughput's problem generator uses, so generated files probe
  // the problem family the committed baseline measures.
  std::vector<double> origin(dim);
  Pcg32 base(baseSeed);
  for (double& v : origin) {
    v = base.uniform(0.5, 1.5);
  }

  std::ofstream out = openBinaryOut(outPath);
  core::InstanceFileWriter writer(out, dim, {}, outPath);
  std::vector<double> row(dim);
  for (std::uint64_t i = 0; i < instances; ++i) {
    Pcg32 rng(seed, i);
    for (std::uint64_t k = 0; k < dim; ++k) {
      row[k] = origin[k] * rng.uniform(1.0 - spread, 1.0 + spread);
    }
    writer.append(row);
  }
  writer.finish();
  std::cout << "generated " << instances << " x " << dim << " (" << seed
            << '/' << baseSeed << ", spread " << spread << ") -> " << outPath
            << '\n';
  return 0;
}

int runInfo(const ArgParser& args) {
  const std::string inPath = args.getString("in", "");
  args.rejectUnknownOptions("etc_pack");
  if (inPath.empty()) return usage();
  // Opening the reader runs full header validation: bad magic, unknown
  // flags, nonzero reserved bytes, shape/size mismatches, and trailing
  // bytes after the declared payload all produce a categorized
  // util::ParseError (printed by main's handler) instead of a dump.
  const core::InstanceFileReader reader(inPath);

  // Re-read the raw header to show the fields validation normalizes away
  // (version, flags, reserved): when a foreign writer misbehaves, `info`
  // on a file that DOES validate is how its raw framing gets inspected.
  std::ifstream raw(inPath, std::ios::binary);
  unsigned char header[core::kInstanceFileHeaderBytes] = {};
  raw.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!raw) {
    throw std::runtime_error("etc_pack: cannot re-read the header of '" +
                             inPath + "'");
  }
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  std::memcpy(&flags, header + 12, sizeof(flags));

  std::cout << inPath << ": dim " << reader.dim() << ", instances "
            << reader.instances() << ", payload "
            << reader.instances() * reader.dim() * 8 << " bytes\n";
  std::cout << "  version " << version << ", flags 0x" << std::hex
            << std::setfill('0') << std::setw(8) << flags << std::dec
            << std::setfill(' ') << ", reserved[32]";
  bool reservedZero = true;
  for (std::size_t i = 32; i < core::kInstanceFileHeaderBytes; ++i) {
    reservedZero = reservedZero && header[i] == 0;
  }
  if (reservedZero) {
    std::cout << " all zero\n";
  } else {
    // Unreachable after validation today, but printed verbatim so a future
    // version that relaxes the reserved-bytes rule stays inspectable.
    std::cout << std::hex << std::setfill('0');
    for (std::size_t i = 32; i < core::kInstanceFileHeaderBytes; ++i) {
      std::cout << ' ' << std::setw(2)
                << static_cast<unsigned>(header[i]);
    }
    std::cout << std::dec << std::setfill(' ') << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const ArgParser args(argc - 1, argv + 1);
  if (command == "pack") return runPack(args);
  if (command == "unpack") return runUnpack(args);
  if (command == "gen") return runGen(args);
  if (command == "info") return runInfo(args);
  return usage();
} catch (...) {
  return harnessFailure("etc_pack");
}
