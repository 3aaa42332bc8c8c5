(** Two-degree-of-freedom (x sense, y cross) lumped dynamics of the
    accelerometer at a given temperature, with capacitive readout.

    The model solves [(K − ω²M + jωB) X = F] where [K] assembles the
    four suspension springs (axial + lateral stiffness along each
    spring's orientation, including thermal stress stiffening), [M] is
    the proof mass, [B] the film damping, and [F = m·a·ê] the inertial
    force of an acceleration [a] along the unit axis [ê]. *)

type t

val build : Geometry.t -> temp:float -> t
(** Assembles the system matrices at [temp] (°C). *)

val stiffness : t -> float * float * float
(** (kxx, kyy, kxy) of the assembled stiffness matrix, N/m. *)

val mass : t -> float
val damping : t -> float

val resonance : t -> float
(** Undamped x-mode natural frequency √(kxx/m)/2π, Hz. *)

val quality_estimate : t -> float
(** √(kxx·m)/b, the textbook Q (the measured one comes from the
    response curve). *)

type axis = X_axis | Y_axis

val displacement : t -> axis:axis -> freq:float -> accel:float -> Complex.t
(** Phasor x-displacement (the sense direction) for a sinusoidal
    acceleration of amplitude [accel] (m/s²) along [axis] at [freq] Hz.
    [freq = 0] gives the static deflection. *)

val readout_mv_per_v : t -> x:float -> float
(** Converts an x-displacement (m) into the differential capacitive
    bridge output in mV per volt of modulation: [1000·2x/gap] with the
    temperature-corrected gap. *)

val response_mv_per_v : t -> axis:axis -> freq:float -> float
(** Magnitude of the readout for a 1 g acceleration along [axis]:
    the scale-factor transfer curve, mV/V.

    It and {!displacement} share one solve of the 2×2 system in floats,
    with the operations of [Complex.mul], [Complex.sub] and
    [Complex.div] in their order and [Float.hypot] for the modulus, so
    the result has the bits of the boxed complex solve. The solve
    allocates nothing: the response costs only the boxing of its float
    argument and result across the module boundary, about 4 minor words
    where the boxed solve took about 40. *)
