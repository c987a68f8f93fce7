// mbq_spec — WorkloadSpec codec CLI.
//
//   mbq_spec encode [--in F] [--out F]    JSON text -> binary frame
//   mbq_spec decode [--in F] [--out F]    binary frame -> JSON text
//
// --in/--out default to "-" (stdin/stdout).
//
// Round-trip smoke (CI):  mbq_spec encode < spec.json | mbq_spec decode
// reproduces the canonical JSON byte-for-byte.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mbq/api/workload_spec.h"
#include "mbq/api/workload_spec_json.h"
#include "mbq/common/error.h"

namespace {

using namespace mbq;

int usage() {
  std::cerr << "usage: mbq_spec <encode|decode> [--in F] [--out F]\n"
               "  encode  JSON spec -> binary frame\n"
               "  decode  binary frame -> JSON spec\n"
               "--in/--out default to - (stdin/stdout).\n";
  return 2;
}

std::string read_all(const std::string& path) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  std::ifstream is(path, std::ios::binary);
  MBQ_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_all(const std::string& path, const std::string& data) {
  if (path == "-") {
    std::cout.write(data.data(), static_cast<std::streamsize>(data.size()));
    std::cout.flush();
    MBQ_REQUIRE(std::cout.good(), "short write to stdout");
    return;
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  MBQ_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
  MBQ_REQUIRE(os.good(), "short write to '" << path << "'");
}

std::string frame_to_string(const std::vector<std::byte>& frame) {
  return std::string(reinterpret_cast<const char*>(frame.data()),
                     frame.size());
}

api::WorkloadSpec parse_binary(const std::string& data) {
  return api::parse_spec(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(data.data()), data.size()));
}

struct Args {
  std::string in = "-";
  std::string out = "-";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;  // every flag takes a value
    const std::string value = argv[++i];
    if (flag == "--in") {
      a.in = value;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  try {
    if (cmd == "encode") {
      const api::WorkloadSpec spec = api::spec_from_json(read_all(args.in));
      write_all(args.out, frame_to_string(api::serialize_spec(spec)));
    } else if (cmd == "decode") {
      const api::WorkloadSpec spec = parse_binary(read_all(args.in));
      write_all(args.out, api::spec_to_json(spec));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "mbq_spec: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
