(* Serialisation round-trip tests: the SVM model text. *)

module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Model = Stc_svm.Model
module Rng = Stc_numerics.Rng

let check_close tol = Alcotest.(check (float tol))

let training_data seed n =
  let rng = Rng.create seed in
  let x = Array.init n (fun _ -> [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |]) in
  let labels = Array.map (fun xi -> if xi.(0) +. xi.(1) > 0.0 then 1 else -1) x in
  (x, labels)

let kernel_tests =
  [
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        (* the RBF kernel is the only one: the other families of the
           SVMlight format are refused like any unknown name *)
        List.iter
          (fun kernel ->
            let text =
              Printf.sprintf "stc-svr-1\nkernel %s\nbias 0\nnsv 0\n" kernel
            in
            match Model.of_string ~tag:"stc-svr-1" text with
            | Error e -> Alcotest.(check string) kernel "unknown kernel" e
            | Ok _ -> Alcotest.failf "kernel %s accepted" kernel)
          [ "quantum 3"; "linear"; "poly 0.5 1 3"; "sigmoid 0.1 -0.2"; "rbf" ]);
  ]

let svr_tests =
  [
    Alcotest.test_case "svr predictions identical after reload" `Quick (fun () ->
        let x, labels = training_data 1 150 in
        let y = Array.map float_of_int labels in
        let m = Svr.train ~c:10.0 ~epsilon:0.1 ~x ~y () in
        let text = Model.to_string ~tag:"stc-svr-1" m in
        (match Model.of_string ~tag:"stc-svr-1" text with
         | Error e -> Alcotest.fail e
         | Ok m' ->
           Array.iter
             (fun xi ->
               check_close 0.0 "same prediction" (Model.decision m xi)
                 (Model.decision m' xi))
             x);
        Alcotest.(check bool) "non-trivial model" true
          (Stc_svm.Flat.n_rows m.Model.sv > 0));
    Alcotest.test_case "svr header validated" `Quick (fun () ->
        (match
           Model.of_string ~tag:"stc-svr-1"
             "stc-svc-1\nkernel rbf 0.5\nbias 0\nnsv 0\n"
         with
         | Error e ->
           Alcotest.(check string) "tag mismatch"
             "expected \"stc-svr-1\" header, got \"stc-svc-1\"" e
         | Ok _ -> Alcotest.fail "expected tag mismatch"));
    Alcotest.test_case "sv count validated" `Quick (fun () ->
        let bogus = "stc-svr-1\nkernel rbf 0.5\nbias 0\nnsv 2\n1.0 0.5\n" in
        (match Model.of_string ~tag:"stc-svr-1" bogus with
         | Error e ->
           Alcotest.(check string) "count mismatch" "support-vector count mismatch" e
         | Ok _ -> Alcotest.fail "expected count mismatch"));
  ]

let svc_tests =
  [
    Alcotest.test_case "svc decisions identical after reload" `Quick (fun () ->
        let x, y = training_data 2 150 in
        let m = Svc.train ~c:5.0 ~x ~y () in
        let text = Model.to_string ~tag:"stc-svc-1" m in
        (match Model.of_string ~tag:"stc-svc-1" text with
         | Error e -> Alcotest.fail e
         | Ok m' ->
           Array.iter
             (fun xi ->
               check_close 0.0 "same decision" (Model.decision m xi)
                 (Model.decision m' xi))
             x));
  ]

let suites =
  [
    ("io.kernel", kernel_tests);
    ("io.svr", svr_tests);
    ("io.svc", svc_tests);
  ]
