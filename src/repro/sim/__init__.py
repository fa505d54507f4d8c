"""Discrete-event simulation substrate."""

from .channel import Channel, ChannelFaultHook, ChannelPair, FaultyTransfer
from .clock import SimClock
from .loop import Simulator

__all__ = [
    "Channel",
    "ChannelFaultHook",
    "ChannelPair",
    "FaultyTransfer",
    "SimClock",
    "Simulator",
]
