(** UDP-based in-memory key-value store (paper §6.4, Table 4).

    Wire format: ["G <key>"] and ["S <key> <value>"] datagrams, answered
    with the value (or ["OK"] / ["MISS"]).

    Two server builds, matching the paper's specialization ladder:
    - {!serve_sockets}: recvmsg/sendmsg-style loop over the stack's UDP
      sockets (the "LWIP" row of Table 4);
    - {!serve_netdev}: the lwIP stack and scheduler removed — a polling
      loop directly on the uknetdev API with inline header processing and
      prebuilt reply templates (the "uknetdev" row; same porting effort
      class as the DPDK build, one core instead of two).

    {!Client} is the request generator (a second machine in the paper). *)

type store

val create_store : clock:Uksim.Clock.t -> alloc:Ukalloc.Alloc.t -> store
val store_set : store -> string -> string -> unit
val store_get : store -> string -> string option
val store_size : store -> int

val serve_sockets :
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  store:store ->
  unit ->
  unit
(** Spawns a daemon service thread on UDP port 5000. recvmsg/sendmsg are
    function calls in Unikraft, so no syscall cost is charged. *)

val serve_netdev :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  dev:Uknetdev.Netdev.t ->
  store:store ->
  mac:Uknetstack.Addr.Mac.t ->
  ip:Uknetstack.Addr.Ipv4.t ->
  unit ->
  unit
(** The specialized build, on UDP port 5000: a daemon thread polls
    queue 0 while frames arrive and parks on its interrupt when the ring
    runs dry, swaps ethernet/IP/UDP headers in place and transmits
    replies in bursts. *)

module Client : sig
  type result = { requests : int; replies : int; elapsed_ns : float; rate_per_sec : float }

  val run_sockets :
    clock:Uksim.Clock.t ->
    sched:Uksched.Sched.t ->
    stack:Uknetstack.Stack.t ->
    server:Uknetstack.Addr.Ipv4.t * int ->
    ?requests:int ->
    unit ->
    result
  (** Windowed request/response load over a UDP socket, 32 requests in
      flight; drives [sched]. *)

  val run_netdev :
    clock:Uksim.Clock.t ->
    sched:Uksched.Sched.t ->
    dev:Uknetdev.Netdev.t ->
    mac:Uknetstack.Addr.Mac.t ->
    ip:Uknetstack.Addr.Ipv4.t ->
    server_mac:Uknetstack.Addr.Mac.t ->
    server:Uknetstack.Addr.Ipv4.t * int ->
    ?requests:int ->
    unit ->
    result
  (** Raw-packet generator (the DPDK-testpmd-class peer): crafts UDP
      request frames directly on its own device, 32 per TX burst. *)
end
