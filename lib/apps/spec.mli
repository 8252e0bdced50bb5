(** Textual application specifications (KEY = VALUE lines, ['#'] comments):
    the plug-and-play workflow without recompiling. See the implementation
    header for the format; required keys are [nx], [ny], [nz] and [wg].
    An unknown or repeated key is an error naming its line. *)

type error = [ `Msg of string ]

type full = {
  app : Wavefront_core.App_params.t;
  perturb : Perturb.Spec.t option;
      (** the spec's [perturb = ...] stanza ({!Perturb.Spec.of_string}
          clause syntax), if present *)
}

val full_of_string : string -> (full, error) result
val full_of_file : string -> (full, error) result

val of_string : string -> (Wavefront_core.App_params.t, error) result
(** {!full_of_string} keeping only the application (a [perturb] stanza
    still parses — and still fails loudly when malformed — but is
    dropped). *)

val of_file : string -> (Wavefront_core.App_params.t, error) result
