// Two-pass assembler for AL32 assembly source.
//
// Supported syntax (one statement per line, ';' / '@' / '//' comments):
//
//   label:                      ; labels (text or data section)
//       .text / .data           ; section switch
//       .word 1, 0xff, sym      ; 32-bit data (little endian)
//       .half 1, 2              ; 16-bit data
//       .byte 1, 2, 3           ; 8-bit data
//       .space 64               ; zero-filled block
//       .align 16               ; align data cursor (power of two)
//       .equ name, expr         ; assembly-time constant
//       add r0, r1, r2          ; data processing, reg form
//       addeqs r0, r1, #12      ; condition + set-flags suffixes
//       add r0, r1, r2, lsl #3  ; shifted operand-2
//       lsl r0, r1, #4          ; shift aliases of mov-with-shift
//       mul r0, r1, r2          ; multiply / mla r0, r1, r2, r3
//       ldr r0, [r1, #4]        ; memory, immediate offset
//       ldrb r0, [r1, r2]       ; memory, register offset (+ lsl #n)
//       b loop / bne loop       ; branches to labels (or "#offset")
//       movw r0, #lo(table)     ; 16-bit halves of a symbol address
//       ldi r0, #0x12345678     ; pseudo: movw+movt constant load
//       lda r0, table           ; pseudo: movw+movt symbol address
//       nop / mark #1 / halt    ; pseudo & simulator ops
//
// Data-processing immediates must fit the ARM rotated-imm8 scheme; the
// assembler suggests `ldi` otherwise.
#ifndef USCA_ASMX_ASSEMBLER_H
#define USCA_ASMX_ASSEMBLER_H

#include <cstddef>
#include <string_view>

#include "asmx/program.h"

namespace usca::asmx {

/// Largest data section an assembly may lay out.  `.space` and `.align`
/// take any 32-bit operand, so without a bound one directive could ask
/// for gigabytes; a section past this size is refused with
/// util::assembly_error in the layout pass, before anything is allocated.
inline constexpr std::size_t max_data_bytes = std::size_t{16} << 20;

struct assemble_options {
  std::uint32_t code_base = 0x0000'0000;
  std::uint32_t data_base = 0x0001'0000;
};

/// Assembles a complete source file; throws util::assembly_error with
/// line/column information on any malformed statement.
program assemble(std::string_view source, const assemble_options& opts = {});

} // namespace usca::asmx

#endif // USCA_ASMX_ASSEMBLER_H
