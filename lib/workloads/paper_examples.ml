(** The paper's running examples, reconstructed as concrete kernels.

    {b The A,B,C loop} (Figure 5): "a loop containing the operations
    A,B,C where each operation depends on the preceding one and A also
    has a loop-carried dependency on itself."  Overlapping its
    iterations yields the diagonal pattern of Figure 5; simple
    pipelining (back edge after a fixed unwinding) gives speedup 2 and
    Perfect Pipelining speedup 3 in the paper's idealised
    (no-loop-control) accounting.

    {b The A..G loop} (Figures 8, 9, 11, 13): seven operations in three
    chains — A -> B -> C, D -> E, F -> G — whose roots A, D and F each
    carry a loop-carried dependence on themselves ("curved lines
    represent loop-carried dependencies").  Scheduling priority in the
    figures is alphabetical, which {!Grip.Rank.source_order}
    reproduces. *)

open Vliw_ir

let reg = Reg.of_int
let k = reg 0 (* induction register *)
let n = reg 1 (* trip bound, set by the driver *)
let imm n = Operand.Imm (Value.I n)
let addr sym offset = { Operation.sym; base = Operand.Reg k; offset }

(** Figure 5's loop: A (self-recurrent), B <- A, C <- B; C made
    observable through a store so dead-code elimination keeps the
    chain. *)
let abc =
  Grip.Kernel.make ~name:"abc"
    ~description:"Fig. 5 loop: chain a->b->c with a self-recurrent"
    ~pre:[ Operation.Copy (k, imm 0); Operation.Copy (reg 2, imm 0) ]
    ~body:
      [
        (* a *) Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 2), imm 1);
        (* b *) Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 2), imm 1);
        (* c *) Operation.Store (addr "w" 0, Operand.Reg (reg 3));
      ]
    ~ivar:k ~bound:(Operand.Reg n)
    ~observable:[ reg 2 ]
    ~arrays:[ ("w", 64) ]
    ~params:[ (n, Value.I 16) ]
    ()

(** Figures 8/9/11/13's loop: chains a->b->c and d->e whose roots
    recur with period one row per iteration, plus a two-operation
    recurrence f<->g that can only advance two rows per iteration.
    The mixed recurrence periods are what make unconstrained
    dependence-driven scheduling spread iterations apart without bound
    — "no row will be repeated and therefore Perfect Pipelining does
    not naturally converge" (Figure 9) — while Gapless-moves hold each
    iteration together and converge (Figure 13). *)
let abcdefg =
  Grip.Kernel.make ~name:"abcdefg"
    ~description:"Figs. 8-13 loop: mixed-period recurrent chains"
    ~pre:
      [
        Operation.Copy (k, imm 0);
        Operation.Copy (reg 2, imm 0);
        Operation.Copy (reg 4, imm 0);
        Operation.Copy (reg 6, imm 0);
      ]
    ~body:
      [
        (* a *) Operation.Binop (Opcode.Add, reg 2, Operand.Reg (reg 2), imm 1);
        (* b *) Operation.Binop (Opcode.Add, reg 3, Operand.Reg (reg 2), imm 1);
        (* c *) Operation.Store (addr "w" 0, Operand.Reg (reg 3));
        (* d *) Operation.Binop (Opcode.Add, reg 4, Operand.Reg (reg 4), imm 2);
        (* e *) Operation.Store (addr "u" 0, Operand.Reg (reg 4));
        (* f *) Operation.Binop (Opcode.Add, reg 5, Operand.Reg (reg 6), imm 3);
        (* g *) Operation.Binop (Opcode.Add, reg 6, Operand.Reg (reg 5), imm 1);
      ]
    ~ivar:k ~bound:(Operand.Reg n)
    ~observable:[ reg 2; reg 4; reg 6 ]
    ~arrays:[ ("w", 64); ("u", 64) ]
    ~params:[ (n, Value.I 16) ]
    ()
