(* Receive-side scaling: hash a frame's 5-tuple to a queue index.

   The hash is symmetric (src and dst endpoints are combined commutatively)
   so both directions of a connection land on the same queue — what Linux
   calls an XPS-symmetric Toeplitz configuration, and what lets a per-queue
   TCP stack see both halves of its flows. Parsing duplicates the few
   offsets it needs instead of depending on uknetstack (which sits above
   this library). *)

let get_u8 b i = Char.code (Bytes.get b i)
let get_u16 b i = (get_u8 b i lsl 8) lor get_u8 b (i + 1)
let get_u32 b i = (get_u16 b i lsl 16) lor get_u16 b (i + 2)

let mix = Uksim.Rng.avalanche

let hash_tuple ~proto ~src_ip ~src_port ~dst_ip ~dst_port =
  let a = mix ((src_ip lsl 16) lor src_port) in
  let b = mix ((dst_ip lsl 16) lor dst_port) in
  (* + and lxor are commutative: hash (A,B) = hash (B,A). *)
  mix (((a + b) land max_int) lxor mix proto)

let queue_of_tuple ~n_queues ~proto ~src_ip ~src_port ~dst_ip ~dst_port =
  if n_queues <= 0 then invalid_arg "Rss.queue_of_tuple: n_queues must be positive";
  hash_tuple ~proto ~src_ip ~src_port ~dst_ip ~dst_port mod n_queues

type tuple = { proto : int; src_ip : int; src_port : int; dst_ip : int; dst_port : int }

let eth_size = 14

(* Parse at an arbitrary base offset so netbuf windows need no copy. *)
let tuple_at frame ~base ~len =
  if len < eth_size + 20 then None
  else if get_u16 frame (base + 12) <> 0x0800 then None (* not IPv4 *)
  else begin
    let vihl = get_u8 frame (base + eth_size) in
    if vihl lsr 4 <> 4 then None
    else begin
      let ihl = (vihl land 0xf) * 4 in
      let proto = get_u8 frame (base + eth_size + 9) in
      match proto with
      | 6 (* TCP *) | 17 (* UDP *) ->
          let l4 = eth_size + ihl in
          if len < l4 + 4 then None
          else
            Some
              {
                proto;
                src_ip = get_u32 frame (base + eth_size + 12);
                dst_ip = get_u32 frame (base + eth_size + 16);
                src_port = get_u16 frame (base + l4);
                dst_port = get_u16 frame (base + l4 + 2);
              }
      | _ -> None
    end
  end

let tuple_of_frame frame = tuple_at frame ~base:0 ~len:(Bytes.length frame)

let tuple_of_netbuf nb =
  let buf, base, len = Netbuf.view nb in
  tuple_at buf ~base ~len

let queue_of d ~n_queues =
  if n_queues <= 0 then invalid_arg "Rss.queue_of_frame: n_queues must be positive"
  else
    match d with
    | None -> None
    | Some { proto; src_ip; src_port; dst_ip; dst_port } ->
        Some (queue_of_tuple ~n_queues ~proto ~src_ip ~src_port ~dst_ip ~dst_port)

let queue_of_frame frame ~n_queues = queue_of (tuple_of_frame frame) ~n_queues
let queue_of_netbuf nb ~n_queues = queue_of (tuple_of_netbuf nb) ~n_queues
