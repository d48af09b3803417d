// Step C -- multi-ISA binary generation (the Popcorn compiler wrapper).
//
// Takes the instrumented IR and produces a fat binary: per-ISA machine
// code (sized by each ISA's code density), symbols aligned at identical
// virtual addresses across ISAs, and migration metadata synthesized for
// every call site (live values with per-ISA register/stack locations and
// per-ISA frame sizes).  This is the one pipeline step the paper
// leverages wholesale from Popcorn Linux.
#pragma once

#include <vector>

#include "compiler/app_ir.hpp"
#include "isa/isa.hpp"
#include "isa/symbol.hpp"
#include "popcorn/metadata.hpp"
#include "popcorn/multi_isa_binary.hpp"

namespace xartrek::compiler {

/// Options for the build.
struct MultiIsaBuildOptions {
  std::vector<isa::IsaKind> targets = isa::all_isas();
  /// Statically linked base runtime (crt + libc subset) text bytes; the
  /// Popcorn migration runtime adds on top of this per ISA.
  std::uint64_t base_runtime_text_bytes = 620 * 1024;
  std::uint64_t popcorn_runtime_text_bytes = 140 * 1024;
};

/// The Popcorn-compiler stand-in.
class MultiIsaBuilder {
 public:
  explicit MultiIsaBuilder(MultiIsaBuildOptions opts = {});

  /// Build the fat binary for `ir`.  Requires at least one target ISA.
  [[nodiscard]] popcorn::MultiIsaBinary build(const AppIr& ir) const;

  /// Synthesize the per-call-site liveness metadata the real compiler's
  /// liveness pass would emit: each function's locals become live values
  /// with ABI-correct locations per ISA (first arguments in argument
  /// registers, the rest in frame slots).
  [[nodiscard]] popcorn::MigrationMetadata synthesize_metadata(
      const AppIr& ir) const;

  /// Per-ISA encoded size of one function (the code-density model).
  [[nodiscard]] std::uint64_t code_bytes(const IrFunction& fn,
                                         isa::IsaKind isa) const;

 private:
  MultiIsaBuildOptions opts_;
};

}  // namespace xartrek::compiler
