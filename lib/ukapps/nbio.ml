(* Batched zero-copy TX writer: the netbuf-era replacement for
   Buffer.add_string + Tcp_socket.send. Generated reply bytes are written
   straight into pool netbufs (no intermediate materialization, so the
   ["uknetdev.copies"] counter stays untouched); each buffer is handed to
   {!Uknetstack.Stack.Tcp_socket.send_nb} when MSS-full or on [flush], so
   every reply batch leaves as few segments as possible. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

type t = {
  clock : Uksim.Clock.t;
  stack : S.t;
  flow : S.Tcp_socket.flow;
  mutable cur : Nb.t option;
}

let writer ~clock ~stack ~flow = { clock; stack; flow; cur = None }

let flush t =
  match t.cur with
  | None -> ()
  | Some nb ->
      t.cur <- None;
      if Nb.len nb = 0 then Nb.recycle nb
      else ignore (S.Tcp_socket.send_nb t.stack t.flow nb)

let fresh t =
  let nb = S.alloc_buf t.stack in
  t.cur <- Some nb;
  nb

(* Append [s], chunking across segments at MSS boundaries. Writing into
   the buffer is the reply's one materialization; it is charged as a
   memcpy of that many bytes (cycle cost), but it is generation, not a
   payload copy — no counted-copy traffic. *)
let add t s =
  let n = String.length s in
  if n > 0 then begin
    Uksim.Clock.advance t.clock (Uksim.Cost.memcpy n);
    let pos = ref 0 in
    while !pos < n do
      let nb = match t.cur with Some nb -> nb | None -> fresh t in
      let room = min (Tcp.mss - Nb.len nb) (Nb.capacity nb - Nb.len nb) in
      if room <= 0 then flush t
      else begin
        let k = min room (n - !pos) in
        Bytes.blit_string s !pos (Nb.data nb) (Nb.offset nb + Nb.len nb) k;
        Nb.set_len nb (Nb.len nb + k);
        pos := !pos + k
      end
    done
  end
