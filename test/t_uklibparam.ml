(* Tests for uklibparam and its Vm.boot integration. *)

module P = Uklibparam.Libparam

let mk () =
  let t = P.create () in
  P.register t ~lib:"netdev" ~name:"ip" ~doc:"address" (P.String "172.44.0.2");
  P.register t ~lib:"ukalloc" ~name:"heap" ~doc:"heap size" (P.Int (32 * 1024 * 1024));
  P.register t ~lib:"lwip" ~name:"dhcp" ~doc:"use dhcp" (P.Bool false);
  t

let test_defaults () =
  let t = mk () in
  Alcotest.(check (option string)) "string default" (Some "172.44.0.2")
    (P.get_string t ~lib:"netdev" ~name:"ip");
  Alcotest.(check (option int)) "int default" (Some (32 * 1024 * 1024))
    (P.get_int t ~lib:"ukalloc" ~name:"heap");
  Alcotest.(check (option bool)) "unknown param" None (P.get_bool t ~lib:"x" ~name:"y")

let test_parse_assignments () =
  let t = mk () in
  match P.parse t "netdev.ip=10.1.1.1 ukalloc.heap=64M lwip.dhcp=on" with
  | Error e -> Alcotest.fail e
  | Ok argv ->
      Alcotest.(check (list string)) "no argv" [] argv;
      Alcotest.(check (option string)) "ip set" (Some "10.1.1.1")
        (P.get_string t ~lib:"netdev" ~name:"ip");
      Alcotest.(check (option int)) "size suffix" (Some (64 * 1024 * 1024))
        (P.get_int t ~lib:"ukalloc" ~name:"heap");
      Alcotest.(check (option bool)) "bool on" (Some true)
        (P.get_bool t ~lib:"lwip" ~name:"dhcp")

let test_argv_split () =
  let t = mk () in
  match P.parse t "ukalloc.heap=16K -- serve --port 8080" with
  | Error e -> Alcotest.fail e
  | Ok argv -> Alcotest.(check (list string)) "app argv" [ "serve"; "--port"; "8080" ] argv

let test_parse_errors () =
  let t = mk () in
  List.iter
    (fun bad ->
      match P.parse t bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted: %s" bad)
    [ "nodot=1"; "netdev.nope=1"; "ukalloc.heap=abc"; "lwip.dhcp=maybe"; "netdev.ip" ]

let test_duplicate_registration () =
  let t = mk () in
  Alcotest.check_raises "duplicate" (Invalid_argument "Libparam.register: duplicate netdev.ip")
    (fun () -> P.register t ~lib:"netdev" ~name:"ip" (P.String "x"))

let test_usage_lists_params () =
  let t = mk () in
  let u = P.usage t in
  Alcotest.(check bool) "mentions params" true
    (Astring_contains.contains u "netdev.ip" && Astring_contains.contains u "ukalloc.heap")

let test_vm_cmdline_overrides () =
  (* End to end: the boot command line reconfigures the interface and the
     log level, and passes argv through. *)
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, _ = Uknetdev.Wire.create_pair ~engine () in
  let cfg =
    Result.get_ok (Unikraft.Config.make ~app:"app-nginx" ~net:Unikraft.Config.Vhost_net ())
  in
  match
    Unikraft.Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wa
      ~cmdline:
        "netdev.ip=10.7.7.7 netdev.netmask=255.255.0.0 ukdebug.loglevel=0 -- -c /etc/nginx.conf"
      cfg
  with
  | Error e -> Alcotest.fail e
  | Ok env ->
      let conf = Uknetstack.Stack.conf (Option.get env.Unikraft.Vm.stack) in
      Alcotest.(check string) "interface reconfigured" "10.7.7.7"
        (Uknetstack.Addr.Ipv4.to_string conf.Uknetstack.Stack.ip);
      Alcotest.(check string) "netmask reconfigured" "255.255.0.0"
        (Uknetstack.Addr.Ipv4.to_string conf.Uknetstack.Stack.netmask);
      Alcotest.(check (list string)) "argv passed through" [ "-c"; "/etc/nginx.conf" ]
        env.Unikraft.Vm.argv;
      Alcotest.(check bool) "loglevel applied" true
        (Ukdebug.Debug.threshold env.Unikraft.Vm.debug = Ukdebug.Debug.Crit)

(* With no command line the interface takes the default addressing:
   172.44.0.2/24 with no gateway. *)
let test_vm_default_addressing () =
  let clock = Uksim.Clock.create () in
  let engine = Uksim.Engine.create clock in
  let wa, _ = Uknetdev.Wire.create_pair ~engine () in
  let cfg =
    Result.get_ok (Unikraft.Config.make ~app:"app-nginx" ~net:Unikraft.Config.Vhost_net ())
  in
  match Unikraft.Vm.boot ~vmm:Ukplat.Vmm.Qemu ~clock ~engine ~wire:wa cfg with
  | Error e -> Alcotest.fail e
  | Ok env ->
      let conf = Uknetstack.Stack.conf (Option.get env.Unikraft.Vm.stack) in
      Alcotest.(check string) "default address" "172.44.0.2"
        (Uknetstack.Addr.Ipv4.to_string conf.Uknetstack.Stack.ip);
      Alcotest.(check string) "default netmask" "255.255.255.0"
        (Uknetstack.Addr.Ipv4.to_string conf.Uknetstack.Stack.netmask);
      Alcotest.(check bool) "no gateway" true (conf.Uknetstack.Stack.gateway = None)

let test_vm_bad_cmdline () =
  let cfg = Result.get_ok (Unikraft.Config.make ~app:"app-hello" ()) in
  match Unikraft.Vm.boot ~vmm:Ukplat.Vmm.Qemu ~cmdline:"bogus.param=1" cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parameter accepted"

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "parse assignments" `Quick test_parse_assignments;
    Alcotest.test_case "argv split" `Quick test_argv_split;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "duplicate registration" `Quick test_duplicate_registration;
    Alcotest.test_case "usage text" `Quick test_usage_lists_params;
    Alcotest.test_case "vm: cmdline overrides" `Quick test_vm_cmdline_overrides;
    Alcotest.test_case "vm: default addressing" `Quick test_vm_default_addressing;
    Alcotest.test_case "vm: bad cmdline rejected" `Quick test_vm_bad_cmdline;
  ]
