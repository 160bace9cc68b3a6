module Mac = struct
  type t = int

  let mask = (1 lsl 48) - 1
  let of_int i = i land mask
  let to_int t = t
  let broadcast = mask
  let is_broadcast t = t = mask
  let equal = Int.equal

  let of_string s =
    match String.split_on_char ':' s with
    | [ a; b; c; d; e; f ] ->
        List.fold_left
          (fun acc hex ->
            match int_of_string_opt ("0x" ^ hex) with
            | Some v when v >= 0 && v < 256 -> (acc lsl 8) lor v
            | Some _ | None -> invalid_arg ("Mac.of_string: " ^ s))
          0 [ a; b; c; d; e; f ]
    | _ -> invalid_arg ("Mac.of_string: " ^ s)

  let to_string t =
    Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((t lsr 40) land 0xff) ((t lsr 32) land 0xff)
      ((t lsr 24) land 0xff) ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)
end

module Ipv4 = struct
  type t = int

  let mask = 0xffffffff
  let of_int i = i land mask
  let to_int t = t
  let equal = Int.equal

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
        with
        | Some a, Some b, Some c, Some d
          when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256 ->
            (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
        | _, _, _, _ -> invalid_arg ("Ipv4.of_string: " ^ s))
    | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

  let to_string t =
    Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
      ((t lsr 8) land 0xff) (t land 0xff)

  let any = 0
  let broadcast = mask
  let same_subnet a b ~netmask = a land netmask = b land netmask
end
