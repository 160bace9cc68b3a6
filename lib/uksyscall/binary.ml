type insn =
  | Nop
  | Add of int * int
  | Cmp of int * int
  | Mov of int * int
  | Call of int
  | Syscall of int
  | Ret

(* Word layout shared with ukdebug's zydis_like plug-in: opcode in bits
   24-31, operands in bits 12-23 and 0-11. *)
let encode = function
  | Nop -> 0x90 lsl 24
  | Add (a, b) -> (0x01 lsl 24) lor ((a land 0xfff) lsl 12) lor (b land 0xfff)
  | Cmp (a, b) -> (0x39 lsl 24) lor ((a land 0xfff) lsl 12) lor (b land 0xfff)
  | Mov (a, b) -> (0x89 lsl 24) lor ((a land 0xfff) lsl 12) lor (b land 0xfff)
  | Call target -> (0xe8 lsl 24) lor (target land 0xffffff)
  | Syscall n -> (0x0f lsl 24) lor (n land 0xfff)
  | Ret -> 0xc3 lsl 24

let decode word =
  let op = (word lsr 24) land 0xff in
  let a = (word lsr 12) land 0xfff in
  let b = word land 0xfff in
  match op with
  | 0x90 -> Some Nop
  | 0x01 -> Some (Add (a, b))
  | 0x39 -> Some (Cmp (a, b))
  | 0x89 -> Some (Mov (a, b))
  | 0xe8 -> Some (Call (word land 0xffffff))
  | 0x0f -> Some (Syscall b)
  | 0xc3 -> Some Ret
  | _ -> None

(* Rewritten syscalls become calls whose target encodes the syscall
   number in a reserved shim-stub range. *)
let shim_stub_base = 0xf00000
let stub_of_sysno n = shim_stub_base lor (n land 0xfff)
let sysno_of_stub target = if target >= shim_stub_base then Some (target land 0xfff) else None

type t = { words : int array; is_rewritten : bool }

let assemble insns = { words = Array.of_list (List.map encode insns); is_rewritten = false }

let syscall_sites t =
  let acc = ref [] in
  Array.iteri
    (fun i w ->
      match decode w with
      | Some (Syscall _) -> acc := i :: !acc
      | Some (Call target) when sysno_of_stub target <> None -> acc := i :: !acc
      | Some _ | None -> ())
    t.words;
  List.rev !acc

let disassemble_with dbg t =
  Ukdebug.Debug.Disasm.disassemble dbg ~arch:"x86_64" (Array.to_list t.words)

let rewrite t =
  let words =
    Array.map
      (fun w ->
        match decode w with
        | Some (Syscall n) -> encode (Call (stub_of_sysno n))
        | Some _ | None -> w)
      t.words
  in
  { words; is_rewritten = true }

let rewritten t = t.is_rewritten

type run_stats = {
  instructions : int;
  syscalls : int;
  cycles : int;
  enosys : int;
}

let execute_with ~clock ~dispatch t =
  let start = Uksim.Clock.cycles clock in
  let instructions = ref 0 in
  let syscalls = ref 0 in
  let enosys = ref 0 in
  let dispatch ~trap n =
    incr syscalls;
    match (dispatch ~trap ~sysno:n : (int, Fs_errno.t) result) with
    | Ok _ -> ()
    | Error Fs_errno.Enosys -> incr enosys
    | Error _ -> ()
  in
  let n = Array.length t.words in
  let rec step pc =
    if pc >= n then ()
    else begin
      incr instructions;
      match decode t.words.(pc) with
      | None -> invalid_arg (Printf.sprintf "Binary.execute: undecodable word at %d" pc)
      | Some Ret -> ()
      | Some (Nop | Add _ | Cmp _ | Mov _) ->
          Uksim.Clock.advance clock 1;
          step (pc + 1)
      | Some (Syscall sysno) ->
          dispatch ~trap:true sysno;
          step (pc + 1)
      | Some (Call target) -> (
          match sysno_of_stub target with
          | Some sysno ->
              dispatch ~trap:false sysno;
              step (pc + 1)
          | None ->
              (* Ordinary intra-binary call: treat as one cycle (no call
                 graph in this toy ISA). *)
              Uksim.Clock.advance clock 1;
              step (pc + 1))
    end
  in
  step 0;
  {
    instructions = !instructions;
    syscalls = !syscalls;
    cycles = Uksim.Clock.cycles clock - start;
    enosys = !enosys;
  }

let execute ~clock ~shim t =
  execute_with ~clock t ~dispatch:(fun ~trap ~sysno ->
      (* The shim charges its own dispatch-mode cost; binary execution
         adds the trap path or the plain call around it. *)
      let target_cost =
        if trap then Uksim.Cost.syscall_unikraft else Uksim.Cost.function_call
      in
      (* Top up whatever the shim's own dispatch mode will charge so the
         total lands on the trap / plain-call cost. *)
      Uksim.Clock.advance clock (max 0 (target_cost - Shim.dispatch_cost (Shim.mode shim)));
      Shim.call shim ~sysno [||])
