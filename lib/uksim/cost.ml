let function_call = 4
let syscall_unikraft = 84
let syscall_linux = 222
let syscall_linux_nomitig = 154

(* Not in Table 1; standard order-of-magnitude figures for KVM on the same
   class of hardware. A kick that reaches vhost in the host kernel costs a
   few microseconds end to end; the exit itself is ~1-2k cycles. *)
let vm_exit = 1800
let interrupt_delivery = 2600
let context_switch = 320
let page_table_entry_write = 12
let tlb_miss = 90
let memcpy_per_byte = 1.0 /. 16.0
let memcpy n = function_call + int_of_float (ceil (float_of_int n *. memcpy_per_byte))
let checksum_per_byte = 1.0 /. 8.0
let checksum n = function_call + int_of_float (ceil (float_of_int n *. checksum_per_byte))
let cache_hit = 4

(* SMP-model costs (lib/uksmp). Order-of-magnitude figures for the same
   hardware class as Table 1: an IPI is send + remote vector entry; a
   task that changes cores eats a burst of LLC misses re-warming its
   working set; a shared-allocator critical section is a few hundred
   cycles of list surgery under the lock. *)
let ipi = 1400
let cache_migration = 2400
let alloc_backend_op = 400
let arena_refill_per_obj = 60
let arena_fast_path = 24
