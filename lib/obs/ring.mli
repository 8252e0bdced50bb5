(** A bounded buffer with drop accounting.

    Pushes beyond [capacity] are always counted; whether they are stored
    depends on the policy. Retained elements are returned oldest first. *)

type policy =
  | Drop_newest  (** keep the first [capacity] elements, drop later ones *)
  | Overwrite_oldest  (** a true ring: new elements evict the oldest *)

type 'a t

val create : ?policy:policy -> capacity:int -> unit -> 'a t
(** Default policy is [Drop_newest]. Raises [Invalid_argument] if
    [capacity < 1]. *)

val push : 'a t -> 'a -> unit
val length : 'a t -> int
(** Elements currently retained. *)

val pushed : 'a t -> int
(** Total elements ever pushed, including dropped ones. *)

val dropped : 'a t -> int
(** [pushed t - length t]. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val iter : 'a t -> ('a -> unit) -> unit

val clear : 'a t -> unit
(** Full reset: elements and the pushed/dropped accounting. *)
