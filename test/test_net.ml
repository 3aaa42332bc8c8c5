(* The network serving stack: protocol frames, the versioned registry
   with hot reload, the live loopback server against the offline Floor
   reference, and the server under attack (Stc_qa.Net_faults). *)

module Compaction = Stc.Compaction
module Guard_band = Stc.Guard_band
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Gen = Stc_qa.Gen
module Net_faults = Stc_qa.Net_faults
module Protocol = Stc_net.Protocol
module Registry = Stc_net.Registry
module Server = Stc_net.Server
module Client = Stc_net.Client
module Obs = Stc_obs.Registry

let pooled seed ~rows =
  Gen.run ~seed (Gen.flow_with_rows ~rows_per_flow:rows)

(* the contract the wire must reproduce bit-identically *)
let offline_reference flow rows =
  Floor.with_engine flow (fun engine ->
      Floor.process ~retest:(Floor.full_test flow) engine rows)

let outcome =
  Alcotest.testable
    (fun fmt o -> Format.pp_print_string fmt (Protocol.format_outcome o))
    ( = )

let check_outcomes what reference got =
  Alcotest.(check (array outcome)) what reference got

let save_flow_tmp flow =
  let path = Filename.temp_file "stc_test_net" ".flow" in
  (match Flow_io.save ~path flow with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("cannot save flow: " ^ e));
  path

let with_served ?config flow f =
  let path = save_flow_tmp flow in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let registry = Registry.create () in
      let entry =
        match Registry.load registry ~name:"dut" ~path with
        | Ok e -> e
        | Error e -> Alcotest.fail e
      in
      Fun.protect
        ~finally:(fun () -> Registry.shutdown registry)
        (fun () ->
          Server.with_server ?config registry (fun server ->
              f ~server ~registry ~entry ~path)))

let with_client ~server f =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.quit c) (fun () -> f c)

let get = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------ protocol -------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "requests round-trip through the wire form" `Quick
      (fun () ->
        List.iter
          (fun req ->
            match Protocol.parse_request (Protocol.format_request req) with
            | Ok back ->
              Alcotest.(check string)
                "round trip"
                (Protocol.format_request req)
                (Protocol.format_request back)
            | Error e -> Alcotest.fail e)
          [
            Protocol.Ping;
            Protocol.Flows;
            Protocol.Flush;
            Protocol.Quit;
            Protocol.Shutdown;
            Protocol.Metrics;
            Protocol.Info "opamp";
            Protocol.Stats "mems.hot-1";
            Protocol.Batch ("a_b:c", 4096);
            Protocol.Bin ("dut", [| 0.1; -3.25e-7; 1234567.875; 0.0 |]);
            Protocol.Reload { flow = "dut"; path = None };
            Protocol.Reload
              { flow = "dut"; path = Some "/tmp/with space/flow.stc" };
            Protocol.Health;
          ];
        (* older clients spell the metrics request "METRICS text" *)
        List.iter
          (fun line ->
            Alcotest.(check bool) line true
              (Protocol.parse_request line = Ok Protocol.Metrics))
          [ "METRICS"; "METRICS text" ]);
    Alcotest.test_case "rows keep every bit through %.17g" `Quick (fun () ->
        let row =
          [| 1.0 /. 3.0; -1.2345678901234567e-300; 6.02214076e23; 0.1 |]
        in
        let back = get (Protocol.parse_row (Protocol.format_row row)) in
        Alcotest.(check (array (float 0.0))) "bit-identical" row back);
    Alcotest.test_case "format_row is the %.17g join, byte for byte" `Quick
      (fun () ->
        let printf_join row =
          String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") row))
        in
        let st = Random.State.make [| 2006 |] in
        let random_row () =
          Array.init (Random.State.int st 12)
            (fun _ -> Int64.float_of_bits (Random.State.bits64 st))
        in
        let edge =
          [|
            -0.0; 0.0; 5e-324; -5e-324; 2.2250738585072009e-308; 1e-310;
            Float.max_float; -.Float.max_float; Float.min_float; 0.1; -1.5;
            Float.nan; Float.infinity; Float.neg_infinity;
          |]
        in
        List.iter
          (fun row ->
            Alcotest.(check string) "format_row" (printf_join row)
              (Protocol.format_row row);
            Alcotest.(check string) "BIN frame"
              (Printf.sprintf "BIN dut %s" (printf_join row))
              (Protocol.format_request (Protocol.Bin ("dut", row)));
            if Array.for_all Float.is_finite row then begin
              let back = get (Protocol.parse_row (Protocol.format_row row)) in
              Alcotest.(check (array int64)) "parse_row returns the bits"
                (Array.map Int64.bits_of_float row)
                (Array.map Int64.bits_of_float back)
            end)
          ([||] :: edge :: Array.to_list (Array.map (fun v -> [| v |]) edge)
          @ List.init 300 (fun _ -> random_row ())));
    Alcotest.test_case "parse_row keeps its error strings" `Quick (fun () ->
        List.iter
          (fun (line, want) ->
            let got =
              match Protocol.parse_row line with
              | Ok row -> Printf.sprintf "Ok %d cells" (Array.length row)
              | Error e -> e
            in
            Alcotest.(check string) line want got)
          [
            ("", "Ok 0 cells");
            ("1,,2", "column 2: non-numeric cell \"\"");
            ("1,2,", "column 3: non-numeric cell \"\"");
            ("nan", "column 1: non-finite cell \"nan\" (NaN/inf measurements are rejected)");
            ("1e999", "column 1: non-finite cell \"1e999\" (NaN/inf measurements are rejected)");
            ("abc", "column 1: non-numeric cell \"abc\"");
            ("0.5,-2,1e-3", "Ok 3 cells");
          ]);
    Alcotest.test_case "all nine outcomes round-trip" `Quick (fun () ->
        List.iter
          (fun bin ->
            List.iter
              (fun verdict ->
                let o = { Floor.bin; verdict } in
                Alcotest.check outcome "round trip" o
                  (get (Protocol.parse_outcome (Protocol.format_outcome o))))
              [ Guard_band.Good; Guard_band.Bad; Guard_band.Guard ])
          [ Floor.Ship; Floor.Scrap; Floor.Retest ]);
    Alcotest.test_case "malformed requests are typed errors" `Quick (fun () ->
        List.iter
          (fun line ->
            match Protocol.parse_request line with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" line))
          [
            "";
            "BOGUS";
            "BIN";
            "BIN dut";
            "BIN dut 1.0,x";
            "BIN dut 1.0,nan";
            "BIN b@d 1.0";
            "BATCH dut -1";
            "BATCH dut many";
            "METRICS xml";
            "METRICS json";
            "INFO";
            "bin dut 1.0";
            "HEALTH dut";
            "HEALTH b@d";
            "HEALTH two flows";
          ]);
    Alcotest.test_case "flow names are fenced" `Quick (fun () ->
        List.iter
          (fun (name, ok) ->
            Alcotest.(check bool) name ok (Protocol.flow_name_ok name))
          [
            ("opamp", true);
            ("mems.hot:T-40_v2", true);
            (String.make 64 'x', true);
            (String.make 65 'x', false);
            ("", false);
            ("sp ace", false);
            ("new\nline", false);
            ("s/lash", false);
          ]);
    Alcotest.test_case "replies parse and never embed frame breaks" `Quick
      (fun () ->
        (match Protocol.parse_reply (Protocol.ok_line "pong") with
         | Ok (`Ok "pong") -> ()
         | _ -> Alcotest.fail "OK reply");
        (match
           Protocol.parse_reply (Protocol.err_line ~code:"bad-row" "line\nbreak")
         with
         | Ok (`Err ("bad-row", msg)) ->
           Alcotest.(check bool) "flattened" false (String.contains msg '\n')
         | _ -> Alcotest.fail "ERR reply");
        match Protocol.parse_reply "NONSENSE" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage reply parsed");
  ]

(* ------------------------------ registry -------------------------- *)

let registry_tests =
  [
    Alcotest.test_case "add, find, duplicate and bad names" `Quick (fun () ->
        let flow, _ = pooled 31 ~rows:4 in
        let r = Registry.create () in
        let entry = get (Registry.add r ~name:"a" flow) in
        Alcotest.(check bool) "found" true (Registry.find r "a" <> None);
        Alcotest.(check bool) "missing" true (Registry.find r "b" = None);
        (match Registry.add r ~name:"a" flow with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "duplicate accepted");
        (match Registry.add r ~name:"b a d" flow with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "invalid name accepted");
        let st = Registry.status entry in
        Alcotest.(check int) "version 1" 1 st.Registry.version;
        Alcotest.(check string)
          "fingerprint is the flow's"
          (get (Flow_io.fingerprint flow))
          st.Registry.fingerprint;
        Registry.shutdown r);
    Alcotest.test_case "process refuses width mismatches whole" `Quick
      (fun () ->
        let flow, rows = pooled 32 ~rows:3 in
        let r = Registry.create () in
        let entry = get (Registry.add r ~name:"a" flow) in
        let bad = Array.append rows [| [| 1.0 |] |] in
        (match Registry.process entry bad with
         | Error e ->
           Alcotest.(check bool) "names the flow" true
             (String.length e > 0)
         | Ok _ -> Alcotest.fail "ragged batch accepted");
        let reference = offline_reference flow rows in
        check_outcomes "intact rows still served" reference
          (get (Registry.process entry rows));
        Registry.shutdown r);
    Alcotest.test_case "reload: unchanged, swapped, failed, forced" `Quick
      (fun () ->
        let flow, rows = pooled 33 ~rows:4 in
        let path = Filename.temp_file "stc_test_net" ".flow" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            (match Flow_io.save ~path flow with
             | Ok () -> ()
             | Error e -> Alcotest.fail e);
            let r = Registry.create () in
            let entry = get (Registry.load r ~name:"a" ~path) in
            (* same bytes: no churn *)
            (match Registry.reload r ~name:"a" with
             | Ok (`Unchanged st) ->
               Alcotest.(check int) "version kept" 1 st.Registry.version
             | Ok (`Reloaded _) -> Alcotest.fail "same bytes churned the engine"
             | Error e -> Alcotest.fail e);
            (* forced: a genuine swap of identical semantics *)
            (match Registry.reload ~force:true r ~name:"a" with
             | Ok (`Reloaded st) ->
               Alcotest.(check int) "version bumped" 2 st.Registry.version
             | Ok (`Unchanged _) -> Alcotest.fail "force did not swap"
             | Error e -> Alcotest.fail e);
            let reference = offline_reference flow rows in
            check_outcomes "identical verdicts after forced swap" reference
              (get (Registry.process entry rows));
            (* a different flow: swap + versions advance *)
            let identity = Compaction.identity_flow flow.Compaction.specs in
            (match Flow_io.save ~path identity with
             | Ok () -> ()
             | Error e -> Alcotest.fail e);
            (match Registry.reload r ~name:"a" with
             | Ok (`Reloaded st) ->
               Alcotest.(check int) "version 3" 3 st.Registry.version;
               Alcotest.(check int) "all specs kept now"
                 (Array.length flow.Compaction.specs)
                 st.Registry.kept
             | Ok (`Unchanged _) -> Alcotest.fail "new flow not swapped"
             | Error e -> Alcotest.fail e);
            (* a corrupt file must leave the new flow serving *)
            let oc = open_out path in
            output_string oc "stc-flow-999\ngarbage\n";
            close_out oc;
            (match Registry.reload r ~name:"a" with
             | Error _ -> ()
             | Ok _ -> Alcotest.fail "corrupt file accepted");
            let st = Registry.status entry in
            Alcotest.(check int) "version untouched" 3 st.Registry.version;
            check_outcomes "identity flow still serving"
              (offline_reference identity rows)
              (get (Registry.process entry rows));
            Registry.shutdown r));
    Alcotest.test_case "reload without a source is an error" `Quick (fun () ->
        let flow, _ = pooled 34 ~rows:3 in
        let r = Registry.create () in
        let _entry = get (Registry.add r ~name:"a" flow) in
        (match Registry.reload r ~name:"a" with
         | Error e ->
           Alcotest.(check bool) "mentions source" true
             (String.length e > 0)
         | Ok _ -> Alcotest.fail "reload without source succeeded");
        (match Registry.reload r ~name:"ghost" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "unknown flow reloaded");
        Registry.shutdown r);
  ]

(* ------------------------------- server --------------------------- *)

let server_tests =
  [
    Alcotest.test_case "streamed and batched rows match the offline engine"
      `Quick (fun () ->
        let flow, rows = pooled 41 ~rows:24 in
        let reference = offline_reference flow rows in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                check_outcomes "BATCH path" reference
                  (get (Client.bin_batch c ~flow:"dut" rows));
                check_outcomes "pipelined BIN path" reference
                  (get (Client.stream c ~flow:"dut" rows));
                (match Client.ping c with
                 | Ok () -> ()
                 | Error e -> Alcotest.fail e))));
    Alcotest.test_case "deadline flush answers a trickling client" `Quick
      (fun () ->
        let flow, rows = pooled 42 ~rows:4 in
        let reference = offline_reference flow rows in
        let config =
          { Server.default_config with
            Server.flush_rows = 1000; flush_deadline_s = 0.02 }
        in
        with_served ~config flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                (* one lone BIN, nothing else: only the deadline can
                   flush it *)
                Client.send_line c
                  (Protocol.format_request (Protocol.Bin ("dut", rows.(0))));
                let t0 = Unix.gettimeofday () in
                let o = get (Protocol.parse_outcome (Client.recv_line c)) in
                let waited = Unix.gettimeofday () -. t0 in
                Alcotest.check outcome "verdict" reference.(0) o;
                Alcotest.(check bool) "within ~10x deadline" true
                  (waited < 0.2))));
    Alcotest.test_case "unknown flows and bad rows keep the order" `Quick
      (fun () ->
        let flow, rows = pooled 43 ~rows:6 in
        let reference = offline_reference flow rows in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                (* a bad row in the middle of a pipeline: replies stay
                   aligned, the connection stays up *)
                Client.send_line c
                  (Protocol.format_request (Protocol.Bin ("dut", rows.(0))));
                Client.send_line c
                  (Protocol.format_request (Protocol.Bin ("ghost", rows.(1))));
                Client.send_line c
                  (Protocol.format_request (Protocol.Bin ("dut", rows.(2))));
                Client.send_line c (Protocol.format_request Protocol.Flush);
                Alcotest.check outcome "row 0" reference.(0)
                  (get (Protocol.parse_outcome (Client.recv_line c)));
                (match Protocol.parse_reply (Client.recv_line c) with
                 | Ok (`Err ("unknown-flow", _)) -> ()
                 | other ->
                   Alcotest.fail
                     (match other with
                      | Ok (`Ok d) -> "unexpected OK " ^ d
                      | Ok (`Err (c, m)) -> "unexpected ERR " ^ c ^ " " ^ m
                      | Error e -> e));
                Alcotest.check outcome "row 2" reference.(2)
                  (get (Protocol.parse_outcome (Client.recv_line c)));
                (match Protocol.parse_reply (Client.recv_line c) with
                 | Ok (`Ok _) -> ()
                 | _ -> Alcotest.fail "missing FLUSH ack"))));
    Alcotest.test_case "a request written in pieces gets the same replies"
      `Quick (fun () ->
        let flow, rows = pooled 44 ~rows:12 in
        let frames lines = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
        let n = Array.length rows in
        let batch =
          frames
            (Protocol.format_request (Protocol.Batch ("dut", n))
            :: List.map Protocol.format_row (Array.to_list rows))
        and stream =
          frames
            (List.map
               (fun row -> Protocol.format_request (Protocol.Bin ("dut", row)))
               (Array.to_list rows)
            @ [ Protocol.format_request Protocol.Flush ])
        in
        let torn = Obs.counter "stc_net_torn_frames_total" in
        let torn_before = Obs.Counter.get torn in
        let st = Random.State.make [| 44 |] in
        (* cut offsets: random ones, one just after a newline and one
           between two digits of a number *)
        let cuts text =
          let len = String.length text in
          let where pred =
            let rec go tries =
              let i = 1 + Random.State.int st (len - 1) in
              if pred i || tries = 0 then i else go (tries - 1)
            in
            go 1000
          in
          let digit c = c >= '0' && c <= '9' in
          List.sort_uniq compare
            (where (fun i -> text.[i - 1] = '\n')
            :: where (fun i -> digit text.[i - 1] && digit text.[i])
            :: List.init (1 + Random.State.int st 5) (fun _ -> where (fun _ -> true)))
        in
        (* no deadline flush between pieces, so FLUSH acks every row *)
        let config = { Server.default_config with Server.flush_deadline_s = 30.0 } in
        with_served ~config flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            (* writes [text] cut at [at], one syscall per piece with a
               pause between, then reads the [n + 1] reply lines *)
            let exchange text at =
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.setsockopt fd Unix.TCP_NODELAY true;
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
              let ic = Unix.in_channel_of_descr fd in
              Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
                  let write_piece a b =
                    let pos = ref a in
                    while !pos < b do
                      pos := !pos + Unix.write_substring fd text !pos (b - !pos)
                    done;
                    Unix.sleepf 0.002
                  in
                  let last =
                    List.fold_left (fun a b -> write_piece a b; b) 0 at
                  in
                  write_piece last (String.length text);
                  List.init (n + 1) (fun _ -> input_line ic))
            in
            List.iter
              (fun text ->
                let whole = exchange text [] in
                for _ = 1 to 6 do
                  Alcotest.(check (list string)) "replies" whole
                    (exchange text (cuts text))
                done)
              [ batch; stream ]);
        Alcotest.(check int) "no torn frames" torn_before (Obs.Counter.get torn));
    Alcotest.test_case
      "concurrent clients stay bit-identical across a live hot reload"
      `Quick (fun () ->
        let flow, rows = pooled 44 ~rows:40 in
        let reference = offline_reference flow rows in
        with_served flow (fun ~server ~registry ~entry ~path ->
            let n_clients = 4 in
            let iters = 3 in
            let errors = Array.make n_clients None in
            let running = Atomic.make n_clients in
            let threads =
              Array.init n_clients (fun k ->
                  Thread.create
                    (fun () ->
                      Fun.protect
                        ~finally:(fun () -> Atomic.decr running)
                        (fun () ->
                          try
                            with_client ~server (fun c ->
                                for _ = 1 to iters do
                                  let got =
                                    get
                                      (if k mod 2 = 0 then
                                         Client.bin_batch c ~flow:"dut" rows
                                       else Client.stream c ~flow:"dut" rows)
                                  in
                                  check_outcomes "verdicts" reference got
                                done)
                          with e -> errors.(k) <- Some (Printexc.to_string e)))
                    ())
            in
            (* mid-run: a protocol reload to the identical file (no-op)
               and forced in-process swaps (genuine drains) *)
            let reloads = ref 0 in
            with_client ~server (fun admin ->
                (match Client.reload admin ~flow:"dut" () with
                 | Ok (`Unchanged, _) -> ()
                 | Ok (`Reloaded, _) ->
                   Alcotest.fail "identical file reported Reloaded"
                 | Error e -> Alcotest.fail e);
                while Atomic.get running > 0 && !reloads < 100 do
                  (match
                     Registry.reload ~force:true ~path registry ~name:"dut"
                   with
                   | Ok (`Reloaded _) -> incr reloads
                   | Ok (`Unchanged _) -> Alcotest.fail "force did not swap"
                   | Error e -> Alcotest.fail e);
                  Thread.delay 0.002
                done);
            Array.iter Thread.join threads;
            Array.iter
              (function
                | None -> ()
                | Some e -> Alcotest.fail ("client thread: " ^ e))
              errors;
            Alcotest.(check bool) "at least one live swap" true (!reloads > 0);
            Alcotest.(check int) "version tracked every swap" (1 + !reloads)
              (Registry.status entry).Registry.version));
    Alcotest.test_case "METRICS serves live parseable counters" `Quick
      (fun () ->
        let flow, rows = pooled 45 ~rows:12 in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                let (_ : Floor.outcome array) =
                  get (Client.bin_batch c ~flow:"dut" rows)
                in
                (* the text form round-trips through the stc-metrics-1
                   parser *)
                let text = get (Client.metrics c ()) in
                let flat = get (Obs.parse_text text) in
                let value name =
                  match List.assoc_opt name flat with
                  | Some v -> v
                  | None -> Alcotest.fail ("missing metric " ^ name)
                in
                Alcotest.(check bool) "requests counted" true
                  (value "stc_net_requests_total" >= 1.0);
                Alcotest.(check bool) "rows counted" true
                  (value "stc_net_rows_total" >= float_of_int (Array.length rows));
                Alcotest.(check bool) "batches counted" true
                  (value "stc_net_batches_total" >= 1.0);
                (* text is the only export format *)
                Client.send_line c "METRICS json";
                match Protocol.parse_reply (Client.recv_line c) with
                | Ok (`Err ("bad-request", _)) -> ()
                | _ -> Alcotest.fail "METRICS json was not a bad request")));
    Alcotest.test_case "client killed mid-batch does not kill the server"
      `Quick (fun () ->
        (* the SIGPIPE regression: a client pushes a full batch plus a
           tail of PINGs and closes without reading, so the handler
           writes into a dead socket; the server must tear down that
           connection, count a disconnect, and keep serving *)
        let flow, rows = pooled 48 ~rows:16 in
        let reference = offline_reference flow rows in
        let disconnects_before =
          float_of_int (Obs.Counter.get (Obs.counter "stc_net_disconnects_total"))
        in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
            let buf = Buffer.create 1024 in
            Buffer.add_string buf
              (Printf.sprintf "BATCH dut %d\n" (Array.length rows));
            Array.iter
              (fun r -> Buffer.add_string buf (Protocol.format_row r ^ "\n"))
              rows;
            for _ = 1 to 32 do
              Buffer.add_string buf "PING\n"
            done;
            let s = Buffer.contents buf in
            ignore (Unix.write_substring fd s 0 (String.length s));
            (* SO_LINGER 0 turns the close into an immediate RST, so
               the handler's replies meet a dead socket no matter how
               fast it drains its queue *)
            Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
            Unix.close fd;
            (* wait (bounded) for the handler to hit the dead socket *)
            let deadline = Unix.gettimeofday () +. 2.0 in
            let disconnects () =
              float_of_int
                (Obs.Counter.get (Obs.counter "stc_net_disconnects_total"))
            in
            while
              disconnects () <= disconnects_before
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.01
            done;
            Alcotest.(check bool) "disconnect counted" true
              (disconnects () > disconnects_before);
            (* the server is alive and bit-identical for a fresh client *)
            with_client ~server (fun c ->
                check_outcomes "after write-after-close" reference
                  (get (Client.bin_batch c ~flow:"dut" rows)))));
    Alcotest.test_case "drain answers half-flushed batches then stops"
      `Quick (fun () ->
        let flow, rows = pooled 50 ~rows:20 in
        let reference = offline_reference flow rows in
        let n = Array.length rows in
        let half = n / 2 in
        let config =
          { Server.default_config with Server.drain_deadline_s = 10.0 }
        in
        with_served ~config flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            (* two clients park a half-delivered BATCH each *)
            let open_half () =
              let c = Client.connect ~port:(Server.port server) () in
              Client.send_line c
                (Protocol.format_request (Protocol.Batch ("dut", n)));
              for i = 0 to half - 1 do
                Client.send_line c (Protocol.format_row rows.(i))
              done;
              c
            in
            let requests = Obs.counter "stc_net_requests_total" in
            let requests_before = Obs.Counter.get requests in
            let a = open_half () in
            let b = open_half () in
            (* both handlers must take their BATCH header before the
               drain starts, or the header itself is answered
               [ERR draining] and the connection closed *)
            let deadline = Unix.gettimeofday () +. 2.0 in
            while
              Obs.Counter.get requests < requests_before + 2
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.005
            done;
            Thread.delay 0.05;
            let idle = Client.connect ~port:(Server.port server) () in
            with_client ~server (fun admin ->
                match Client.shutdown admin with
                | Ok () -> ()
                | Error e -> Alcotest.fail e);
            let t0 = Unix.gettimeofday () in
            let waiter =
              Thread.create (fun () -> Server.wait ~poll_s:0.01 server) ()
            in
            let deadline = Unix.gettimeofday () +. 2.0 in
            while
              (not (Server.draining server))
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.005
            done;
            Alcotest.(check bool) "draining engaged" true
              (Server.draining server);
            (* a new connection is shed with a typed line *)
            let rej = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect rej
              (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
            let rej_ic = Unix.in_channel_of_descr rej in
            (match input_line rej_ic with
             | line ->
               Alcotest.(check bool) "ERR draining for new connections" true
                 (contains ~needle:"ERR draining" line)
             | exception End_of_file ->
               Alcotest.fail "new connection closed without ERR draining");
            close_in_noerr rej_ic;
            (* new work on an already-open connection is refused too *)
            (match Client.health idle with
             | Error e ->
               Alcotest.(check bool) "HEALTH says draining" true
                 (contains ~needle:"draining" e)
             | Ok d -> Alcotest.fail ("HEALTH during drain: " ^ d));
            Client.close idle;
            (* the parked batches deliver their second halves under the
               drain and still get every verdict, bit-identically *)
            let finish c =
              for i = half to n - 1 do
                Client.send_line c (Protocol.format_row rows.(i))
              done;
              (match Protocol.parse_reply (Client.recv_line c) with
               | Ok (`Ok _) -> ()
               | _ -> Alcotest.fail "missing batch ack");
              let got =
                Array.init n (fun _ ->
                    get (Protocol.parse_outcome (Client.recv_line c)))
              in
              check_outcomes "drained batch bit-identical" reference got;
              Client.quit c
            in
            finish a;
            finish b;
            Thread.join waiter;
            let waited = Unix.gettimeofday () -. t0 in
            Alcotest.(check bool) "stopped well before the drain deadline"
              true (waited < 8.0);
            Alcotest.(check bool) "stopped" false (Server.running server)));
    Alcotest.test_case "a closing client never closes another thread's file"
      `Quick (fun () ->
        (* both of a client's channels wrap one descriptor; closing it
           twice can close the file another thread just opened under
           the same number, which then fails with EBADF *)
        let flow, _ = pooled 48 ~rows:3 in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path ->
            let port = Server.port server in
            let closing = Atomic.make true in
            let closer =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.set closing false)
                    (fun () ->
                      for _ = 1 to 100 do
                        Client.close (Client.connect ~port ())
                      done))
                ()
            in
            let expected = In_channel.with_open_bin path In_channel.input_all in
            let reads = ref 0 in
            while Atomic.get closing do
              let text = In_channel.with_open_bin path In_channel.input_all in
              Alcotest.(check string) "file read intact" expected text;
              incr reads
            done;
            Thread.join closer;
            Alcotest.(check bool) "reads overlapped the closes" true
              (!reads > 0)));
    Alcotest.test_case "SHUTDOWN latches and wait stops the server" `Quick
      (fun () ->
        let flow, _ = pooled 46 ~rows:3 in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                (match Client.shutdown c with
                 | Ok () -> ()
                 | Error e -> Alcotest.fail e);
                Alcotest.(check bool) "latched" true
                  (Server.shutdown_requested server));
            Server.wait ~poll_s:0.01 server;
            Alcotest.(check bool) "stopped" false (Server.running server)));
    Alcotest.test_case "INFO, FLOWS and STATS describe the route" `Quick
      (fun () ->
        let flow, rows = pooled 47 ~rows:5 in
        let reference = offline_reference flow rows in
        let fingerprint = get (Flow_io.fingerprint flow) in
        let specs = Array.length flow.Compaction.specs in
        let kept = Array.length flow.Compaction.kept in
        let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 in
        with_served flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            with_client ~server (fun c ->
                check_outcomes "served" reference
                  (get (Client.bin_batch c ~flow:"dut" rows));
                Alcotest.(check (list string)) "FLOWS line"
                  [ Printf.sprintf "FLOW dut 1 %s %d/%d" fingerprint kept specs ]
                  (get (Client.flows c));
                Alcotest.(check string) "INFO detail"
                  (Printf.sprintf
                     "flow dut version 1 fingerprint %s specs %d kept %d \
                      dropped %d"
                     fingerprint specs kept
                     (Array.length flow.Compaction.dropped))
                  (get (Client.info c ~flow:"dut"));
                Alcotest.(check string) "STATS detail"
                  (Printf.sprintf
                     "stats devices %d shipped %d scrapped %d retested %d \
                      batches 1 version 1"
                     (Array.length rows)
                     (count (fun o -> o.Floor.bin = Floor.Ship) reference)
                     (count (fun o -> o.Floor.bin = Floor.Scrap) reference)
                     (count
                        (fun o -> o.Floor.verdict = Guard_band.Guard)
                        reference))
                  (get (Client.stats c ~flow:"dut"));
                Alcotest.(check string) "HEALTH detail"
                  "health serving flows 1" (get (Client.health c));
                (* HEALTH takes no flow: a typed bad-request, after
                   which the connection still answers *)
                Client.send_line c "HEALTH dut";
                (match Protocol.parse_reply (Client.recv_line c) with
                 | Ok (`Err ("bad-request", _)) -> ()
                 | _ -> Alcotest.fail "HEALTH dut was not a bad request");
                match Client.info c ~flow:"ghost" with
                | Error _ -> ()
                | Ok _ -> Alcotest.fail "INFO on a ghost flow succeeded")));
    Alcotest.test_case "an infinite write timeout waits for a slow reader"
      `Quick (fun () ->
        let flow, rows = pooled 51 ~rows:16 in
        let count = 4096 in
        let batch = Array.init count (fun i -> rows.(i mod Array.length rows)) in
        let reference = offline_reference flow batch in
        (* small socket buffers: the reply fills them in kilobytes, so
           the server's write blocks until the client reads *)
        let config =
          {
            Server.default_config with
            Server.write_timeout_s = Float.infinity;
            max_pending = count;
            sndbuf_bytes = Some 4096;
          }
        in
        let errors = Obs.counter "stc_net_errors_total" in
        let errors_before = Obs.Counter.get errors in
        with_served ~config flow (fun ~server ~registry:_ ~entry:_ ~path:_ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            (try Unix.setsockopt_int fd Unix.SO_RCVBUF 4096
             with Unix.Unix_error _ -> ());
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
            let ic = Unix.in_channel_of_descr fd in
            Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
                let text =
                  String.concat ""
                    (List.map
                       (fun l -> l ^ "\n")
                       (Protocol.format_request (Protocol.Batch ("dut", count))
                       :: List.map Protocol.format_row (Array.to_list batch)))
                in
                let pos = ref 0 in
                while !pos < String.length text do
                  pos :=
                    !pos
                    + Unix.write_substring fd text !pos
                        (String.length text - !pos)
                done;
                (* read nothing for a while: the server's reply write
                   stalls and must wait, not fail *)
                Unix.sleepf 0.3;
                Alcotest.(check string) "batch ack"
                  (Protocol.ok_line (Printf.sprintf "batch %d" count))
                  (input_line ic);
                Array.iteri
                  (fun i o ->
                    Alcotest.(check string)
                      (Printf.sprintf "row %d" i)
                      (Protocol.format_outcome o) (input_line ic))
                  reference));
        Alcotest.(check int) "no connection errors" errors_before
          (Obs.Counter.get errors));
    Alcotest.test_case "create refuses NaN timeouts, allows infinity" `Quick
      (fun () ->
        (* a NaN timeout reaches Unix.select, which raises EINVAL *)
        let registry = Registry.create () in
        let d = Server.default_config in
        List.iter
          (fun port ->
            match Server.create ~config:{ d with Server.port } registry with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "port %d accepted" port)
          [ -1; 65536; 70000 ];
        List.iter
          (fun host ->
            match Server.create ~config:{ d with Server.host } registry with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "host %S accepted" host)
          [ "nosuchhost"; "::1" ];
        let with_times v =
          [
            ("flush", { d with Server.flush_deadline_s = v });
            ("drain", { d with Server.drain_deadline_s = v });
            ("idle", { d with Server.idle_timeout_s = v });
            ("write", { d with Server.write_timeout_s = v });
          ]
        in
        List.iter
          (fun (what, config) ->
            match Server.create ~config registry with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "%s = nan accepted" what)
          (with_times Float.nan);
        List.iter
          (fun (_, config) -> ignore (Server.create ~config registry))
          (with_times Float.infinity);
        let server = Server.create registry in
        (match Server.drain ~deadline_s:Float.nan server with
         | exception Invalid_argument _ -> ()
         | () -> Alcotest.fail "drain ~deadline_s:nan accepted");
        Alcotest.(check bool) "a refused drain does not start one" false
          (Server.draining server);
        Registry.shutdown registry);
  ]

(* Each check boots its own loopback server, attacks it, and demands
   that a well-behaved client still gets the offline reference's
   verdicts. *)
let fault_tests =
  let fault name seed check =
    Alcotest.test_case name `Quick (fun () ->
        get (check (pooled seed ~rows:16)))
  in
  [
    fault "torn frames and garbage verbs kill only their connection" 61
      Net_faults.check_torn_frames;
    fault "a mid-batch disconnect kills only its connection" 62
      Net_faults.check_mid_batch_disconnect;
    fault "a connection flood is shed past max-conns" 64
      Net_faults.check_connection_flood;
    fault "a slow-loris opener is reaped by the idle deadline" 65
      Net_faults.check_slow_loris;
    fault "a reply-ignoring client hits the write deadline" 66
      Net_faults.check_reply_ignorer;
  ]

let suites =
  [
    ("net protocol", protocol_tests);
    ("net registry", registry_tests);
    ("net server", server_tests);
    ("net faults", fault_tests);
  ]
