"""What an honest-but-curious server learns, played against the real roles.

Threat model: the server follows the protocol to the letter, but keeps every
message it receives and computes on them across rounds. The stations and
devices are honest. Under the default mask generator the coefficients
H(t, i) are public, so:

* from the station shares of any round that aggregates it learns K_S, the
  sum of the online devices' keys, in both share modes (COMPACT sends the
  shares of K_S; an EVALUATED share divided by H(t, 0) is the same scalar);
* two rounds whose online lists differ by one device give that device's
  key, and the key opens every later update of that device;
* a single masked update gives its own key: the mask is the key times a
  public vector, and the encoded update is small, so a search over the
  2 * 2^f + 1 possible encodings of one coordinate leaves one key that makes
  a second coordinate small too.

These tests pin those facts so that the README's security text stays true.
"""

import random

import numpy as np
import pytest

from secagg5g import field, khprf
from secagg5g.field import P, FixedPointCodec, decode_sum, encode_update
from secagg5g.messages import MaskShareMode
from secagg5g.protocol import (
    Aggregator,
    BaseStation,
    UserEquipment,
    generate_key,
    route_setup_shares,
)
from secagg5g.shamir import AccessStructure, lagrange_coeffs_at_zero

CODEC = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=1024)
D = 6
N = 6


def make_fleet(seed):
    """N devices registered at 3-of-4 stations, and the server."""
    rng = random.Random(seed)
    acc = AccessStructure(3, 4)
    ues = {i: UserEquipment(ue_id=i, key=generate_key(rng), codec=CODEC, dim=D)
           for i in range(1, N + 1)}
    bss = {j: BaseStation(bs_id=j) for j in range(1, 5)}
    for ue in ues.values():
        for j, msg in route_setup_shares(ue.setup(acc, rng), set(bss)).items():
            bss[j].receive_share(msg)
    af = Aggregator(registered_n=N, min_online_fraction=1.0 / 3.0, bs_threshold=acc,
                    codec=CODEC, dim=D)
    return ues, bss, af, rng


def play_round(ues, bss, af, t, online, mode, rng):
    """One honest round; returns what the server received: the masked
    updates by device and the station shares by station."""
    af.begin_round(t)
    for i in online:
        af.collect_update(ues[i].masked_update([rng.uniform(-1, 1) for _ in range(D)], t))
    listing = af.finalize_online_list()
    shares = {j: bs.mask_share(listing, t, mode, D) for j, bs in bss.items()}
    af.unmask_and_aggregate(af.recover_mask(shares, mode))
    return dict(af.masked_updates), shares


def key_sum_from_shares(shares, t, mode):
    """The server's own computation: Lagrange at 0 over three station
    scalars, each read off its share with public values only."""
    chosen = sorted(shares)[:3]
    if mode is MaskShareMode.COMPACT:
        ys = [shares[j].scalar for j in chosen]
    else:
        h0 = int(khprf.coefficient_vector(t, D)[0])
        ys = [int(shares[j].vector[0]) * pow(h0, P - 2, P) % P for j in chosen]
    return sum(lam * y for lam, y in zip(lagrange_coeffs_at_zero(chosen), ys)) % P


def key_from_one_update(payload, t):
    """Search the encodings e of coordinate 0 that |w| <= 1 allows; the key
    (c0 - e) / h0 is the true one when it also leaves coordinate 1 small."""
    bound = CODEC.scale
    h = khprf.coefficient_vector(t, D)
    encodings = (np.arange(-bound, bound + 1) % P).astype(np.uint64)
    offsets = field.vec_sub(np.full(len(encodings), payload[0], dtype=np.uint64), encodings)
    keys = field.mulmod(pow(int(h[0]), P - 2, P), offsets)
    rest = field.vec_sub(np.full(len(keys), payload[1], dtype=np.uint64),
                         field.mulmod(keys, np.full(len(keys), h[1], dtype=np.uint64)))
    return [int(k) for k in keys[(rest <= bound) | (rest >= P - bound)]]


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_server_learns_the_online_key_sum_every_round(mode):
    ues, bss, af, rng = make_fleet(seed=1)
    for t in range(6):
        online = sorted(rng.sample(range(1, N + 1), rng.randint(2, N)))
        _, shares = play_round(ues, bss, af, t, online, mode, rng)
        assert key_sum_from_shares(shares, t, mode) == sum(ues[i].key for i in online) % P


@pytest.mark.parametrize("mode", list(MaskShareMode))
def test_lists_differing_by_one_device_give_its_key_and_open_its_updates(mode):
    ues, bss, af, rng = make_fleet(seed=2)
    _, shares_0 = play_round(ues, bss, af, 0, [1, 2, 3, 4, 5, 6], mode, rng)
    _, shares_1 = play_round(ues, bss, af, 1, [1, 2, 3, 4, 6], mode, rng)
    key_5 = (key_sum_from_shares(shares_0, 0, mode) - key_sum_from_shares(shares_1, 1, mode)) % P
    assert key_5 == ues[5].key
    # round 5: device 5's update alone, opened with the derived key
    w = [0.25, -0.5, 1.0, -1.0, 0.0, 0.125]
    payload = ues[5].masked_update(w, 5).payload
    opened = field.vec_sub(payload, khprf.evaluate(key_5, 5, D))
    assert opened.tolist() == encode_update(w, CODEC).tolist()
    assert decode_sum(opened, CODEC, 1).tolist() == w


def test_one_masked_update_gives_its_key():
    ues, bss, af, rng = make_fleet(seed=3)
    received, _ = play_round(ues, bss, af, 4, [2, 4, 5], MaskShareMode.EVALUATED, rng)
    for i, payload in received.items():
        assert key_from_one_update(payload, 4) == [ues[i].key]
