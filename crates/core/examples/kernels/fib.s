; Iterative Fibonacci: r3 = fib(30).
; Run:  looseloops run --asm crates/core/examples/kernels/fib.s --verify --warmup 0 --measure 1000000
    addi r1, r31, 0          ; fib(0)
    addi r2, r31, 1          ; fib(1)
    addi r4, r31, 29         ; iterations
loop:
    add  r3, r1, r2
    add  r1, r2, r31
    add  r2, r3, r31
    subi r4, r4, 1
    bne  r4, loop
    halt
