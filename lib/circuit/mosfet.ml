type kind = Nmos | Pmos

type params = {
  kind : kind;
  vt0 : float;
  kp : float;
  lambda : float;
  cox : float;
  cov : float;
  cj : float;
}

let default_nmos =
  {
    kind = Nmos;
    vt0 = 0.7;
    kp = 110e-6;
    lambda = 0.04;
    cox = 3.8e-3;
    cov = 0.35e-9;
    cj = 0.9e-9;
  }

let default_pmos =
  {
    kind = Pmos;
    vt0 = 0.8;
    kp = 38e-6;
    lambda = 0.05;
    cox = 3.8e-3;
    cov = 0.35e-9;
    cj = 1.1e-9;
  }

type op = {
  mutable vgs : float;
  mutable vds : float;
  mutable ids : float;
  mutable gm : float;
  mutable gds : float;
}

let op () = { vgs = 0.0; vds = 0.0; ids = 0.0; gm = 0.0; gds = 0.0 }

(* The NMOS equations on (possibly mirrored) voltages; a small
   subthreshold conductance keeps the Jacobian nonsingular in cutoff.
   Inlined, so that its float arguments are never boxed. *)
let[@inline] square_law p ~beta ~vgs ~vds op =
  let vov = vgs -. p.vt0 in
  if vov <= 0.0 then begin
    let gleak = 1e-12 in
    op.ids <- gleak *. vds;
    op.gm <- 0.0;
    op.gds <- gleak
  end
  else if vds < vov then begin
    (* triode *)
    let clm = 1.0 +. (p.lambda *. vds) in
    op.ids <- beta *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. clm;
    op.gm <- beta *. vds *. clm;
    op.gds <-
      (beta *. (vov -. vds) *. clm)
      +. (beta *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. p.lambda)
  end
  else begin
    (* saturation *)
    let clm = 1.0 +. (p.lambda *. vds) in
    op.ids <- 0.5 *. beta *. vov *. vov *. clm;
    op.gm <- beta *. vov *. clm;
    op.gds <- 0.5 *. beta *. vov *. vov *. p.lambda
  end

let beta p ~w ~l =
  assert (w > 0.0 && l > 0.0);
  p.kp *. w /. l

let linearise p ~beta op =
  match p.kind with
  | Nmos -> square_law p ~beta ~vgs:op.vgs ~vds:op.vds op
  | Pmos ->
    (* mirror voltages, evaluate as NMOS, mirror the current back *)
    square_law p ~beta ~vgs:(-.op.vgs) ~vds:(-.op.vds) op;
    op.ids <- -.op.ids

let cgs p ~w ~l = ((2.0 /. 3.0) *. w *. l *. p.cox) +. (p.cov *. w)

let cgd p ~w ~l =
  ignore l;
  p.cov *. w

let cdb p ~w ~l =
  ignore l;
  p.cj *. w
