; Word-granular memcpy of 64 words, then checksum the copy.
; Run:  looseloops run --asm crates/core/examples/kernels/memcpy.s --verify --warmup 0 --measure 1000000
.entry start
.data 0x30000, 0xdead, 0xbeef, 0xcafe, 0xf00d
start:
    addi r1, r31, 0x30000    ; src
    addi r2, r31, 0x40000    ; dst
    addi r3, r31, 64         ; words
copy:
    ldq  r4, 0(r1)
    stq  r4, 0(r2)
    addi r1, r1, 8
    addi r2, r2, 8
    subi r3, r3, 1
    bne  r3, copy
    ; checksum the destination
    addi r2, r31, 0x40000
    addi r3, r31, 64
sum:
    ldq  r4, 0(r2)
    add  r5, r5, r4
    addi r2, r2, 8
    subi r3, r3, 1
    bne  r3, sum
    halt
