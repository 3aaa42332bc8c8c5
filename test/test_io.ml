(* Serialisation round-trip tests: SVM kernels and models. *)

module Kernel = Stc_svm.Kernel
module Svr = Stc_svm.Svr
module Svc = Stc_svm.Svc
module Model_io = Stc_svm.Model_io
module Rng = Stc_numerics.Rng

let check_close tol = Alcotest.(check (float tol))

let training_data seed n =
  let rng = Rng.create seed in
  let x = Array.init n (fun _ -> [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |]) in
  let labels = Array.map (fun xi -> if xi.(0) +. xi.(1) > 0.0 then 1 else -1) x in
  (x, labels)

let kernel_tests =
  [
    Alcotest.test_case "all kernels round-trip" `Quick (fun () ->
        List.iter
          (fun k ->
            match Model_io.kernel_of_string (Model_io.kernel_to_string k) with
            | Ok k' -> Alcotest.(check bool) "equal" true (k = k')
            | Error e -> Alcotest.fail e)
          [ Kernel.Linear; Kernel.rbf 0.35;
            Kernel.Polynomial { gamma = 0.5; coef0 = 1.0; degree = 3 };
            Kernel.Sigmoid { gamma = 0.1; coef0 = -0.2 } ]);
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        (match Model_io.kernel_of_string "quantum 3" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected error"));
  ]

let svr_tests =
  [
    Alcotest.test_case "svr predictions identical after reload" `Quick (fun () ->
        let x, labels = training_data 1 150 in
        let y = Array.map float_of_int labels in
        let m = Svr.train ~c:10.0 ~epsilon:0.1 ~x ~y () in
        let text = Model_io.svr_to_string m in
        (match Model_io.svr_of_string text with
         | Error e -> Alcotest.fail e
         | Ok m' ->
           Array.iter
             (fun xi ->
               check_close 0.0 "same prediction" (Svr.predict m xi) (Svr.predict m' xi))
             x);
        Alcotest.(check bool) "non-trivial model" true (Svr.n_support m > 0));
    Alcotest.test_case "svr header validated" `Quick (fun () ->
        (match Model_io.svr_of_string "stc-svc-1\nkernel linear\nbias 0\nnsv 0\n" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected tag mismatch"));
    Alcotest.test_case "sv count validated" `Quick (fun () ->
        let bogus = "stc-svr-1\nkernel linear\nbias 0\nnsv 2\n1.0 0.5\n" in
        (match Model_io.svr_of_string bogus with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected count mismatch"));
  ]

let svc_tests =
  [
    Alcotest.test_case "svc decisions identical after reload" `Quick (fun () ->
        let x, y = training_data 2 150 in
        let m = Svc.train ~c:5.0 ~x ~y () in
        let text = Model_io.svc_to_string m in
        (match Model_io.svc_of_string text with
         | Error e -> Alcotest.fail e
         | Ok m' ->
           Array.iter
             (fun xi ->
               check_close 0.0 "same decision" (Svc.decision m xi) (Svc.decision m' xi))
             x));
  ]

let suites =
  [
    ("io.kernel", kernel_tests);
    ("io.svr", svr_tests);
    ("io.svc", svc_tests);
  ]
