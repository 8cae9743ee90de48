// Bare-metal loop template (§III.B.2). Registers are initialized with
// checkerboard patterns, the memory base register x10 points at a
// cache-resident buffer, and the GA-generated individual replaces the
// marker line inside the loop body.
.text
.globl _start
_start:
    ldr x0, =0xAAAAAAAAAAAAAAAA
    mov x2, x0
    mov x3, x0
    mov x4, x0
    mov x5, x0
    mov x6, x0
    mov x7, x0
    mov x8, x0
    mov x9, x0
    dup v0.2d, x0
    dup v1.2d, x0
    dup v2.2d, x0
    dup v3.2d, x0
    dup v4.2d, x0
    dup v5.2d, x0
    dup v6.2d, x0
    dup v7.2d, x0
    adrp x10, buffer
    add x10, x10, :lo12:buffer
loop_start:
    #loop_code
    b loop_start
.bss
.align 6
buffer:
    .zero 4096
