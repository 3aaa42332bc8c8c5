(** Level-1 (square-law) MOSFET model with channel-length modulation.

    This is the classic Shichman–Hodges model: simple, smooth enough for
    Newton, and it reproduces the first-order dependencies that matter
    for the op-amp specification correlations (gm ∝ √(W/L·Id),
    Id,sat ∝ W/L·(Vgs−Vt)², ro ∝ 1/(λId)). *)

type kind = Nmos | Pmos

type params = {
  kind : kind;
  vt0 : float;     (** threshold voltage, V (positive magnitude for both kinds) *)
  kp : float;      (** transconductance parameter µCox, A/V² *)
  lambda : float;  (** channel-length modulation, 1/V *)
  cox : float;     (** gate oxide capacitance per area, F/m² *)
  cov : float;     (** gate overlap capacitance per width, F/m *)
  cj : float;      (** junction capacitance per width (lumped), F/m *)
}

val default_nmos : params
val default_pmos : params
(** Representative 0.5 µm-era parameters. *)

type op = {
  mutable vgs : float;  (** gate–source voltage, set by the caller *)
  mutable vds : float;  (** drain–source voltage, set by the caller *)
  mutable ids : float;  (** drain current, drain→source for NMOS convention *)
  mutable gm : float;   (** ∂Id/∂Vgs at the operating point *)
  mutable gds : float;  (** ∂Id/∂Vds *)
}
(** A device's operating point: its bias and its linearisation there.
    All fields are floats, so the record holds them unboxed and
    {!linearise} writes them without allocating. *)

val op : unit -> op
(** Fresh scratch storage, all zero. *)

val beta : params -> w:float -> l:float -> float
(** [beta p ~w ~l] is the device's square-law gain [kp·W/L], in A/V².
    {!Mna.build} computes it once per device. Requires positive [w] and
    [l]. *)

val linearise : params -> beta:float -> op -> unit
(** [linearise p ~beta op] evaluates the square law of a device with
    gain [beta] (from {!beta}) at [op.vgs] and [op.vds] and writes
    [ids], [gm] and [gds]: cutoff (a 1e-12 S leak), triode or
    saturation. For PMOS set terminal voltages as-is (vgs, vds negative
    in normal operation); the model mirrors them, and [ids] is still
    the current flowing drain→source. It allocates nothing:
    {!Mna.stamp} calls it for every device on every Newton
    iteration. *)

val cgs : params -> w:float -> l:float -> float
(** Gate–source capacitance (2/3 W L Cox + overlap). *)

val cgd : params -> w:float -> l:float -> float
(** Gate–drain overlap capacitance. *)

val cdb : params -> w:float -> l:float -> float
(** Drain–bulk junction capacitance (lumped to ground). *)
