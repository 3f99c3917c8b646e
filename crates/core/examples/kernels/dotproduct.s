; Dot product of two 16-element vectors.
; Run:  looseloops run --asm crates/core/examples/kernels/dotproduct.s --verify --warmup 0 --measure 1000000
.data 0x10000, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
.data 0x20000, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1
    addi r1, r31, 0x10000    ; a
    addi r2, r31, 0x20000    ; b
    addi r3, r31, 16         ; n
loop:
    ldq  r4, 0(r1)
    ldq  r5, 0(r2)
    mul  r6, r4, r5
    add  r7, r7, r6          ; sum
    addi r1, r1, 8
    addi r2, r2, 8
    subi r3, r3, 1
    bne  r3, loop
    stq  r7, 0(r1)
    halt
